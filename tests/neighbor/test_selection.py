"""Tests for repro.neighbor.selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coords.base import MatrixPredictor
from repro.delayspace.matrix import DelayMatrix
from repro.errors import NeighborSelectionError
from repro.meridian.rings import MeridianConfig
from repro.neighbor.selection import (
    CoordinateSelectionExperiment,
    MeridianSelectionExperiment,
    NeighborSelectionResult,
    percentage_penalty,
    select_by_predictor,
)


class TestPercentagePenalty:
    def test_perfect_choice(self):
        assert percentage_penalty(10.0, 10.0) == 0.0

    def test_double_delay_is_100_percent(self):
        assert percentage_penalty(20.0, 10.0) == pytest.approx(100.0)

    def test_zero_optimal(self):
        assert percentage_penalty(0.0, 0.0) == 0.0
        assert percentage_penalty(5.0, 0.0) == float("inf")

    def test_negative_raises(self):
        with pytest.raises(NeighborSelectionError):
            percentage_penalty(-1.0, 5.0)


class TestSelectByPredictor:
    def test_ground_truth_predictor_is_perfect(self, small_internet_matrix):
        predictor = MatrixPredictor(small_internet_matrix.with_filled_missing().values)
        candidates = list(range(10))
        clients = list(range(10, 40))
        result = select_by_predictor(small_internet_matrix, predictor, candidates, clients)
        assert result.exact_fraction == 1.0
        assert result.median_penalty() == 0.0

    def test_adversarial_predictor_is_poor(self, small_internet_matrix):
        # Predict the *negated* delays so the farthest candidate looks closest.
        inverted = MatrixPredictor(1000.0 - small_internet_matrix.with_filled_missing().values)
        candidates = list(range(10))
        clients = list(range(10, 40))
        result = select_by_predictor(small_internet_matrix, inverted, candidates, clients)
        assert result.exact_fraction < 0.5
        assert result.median_penalty() > 0

    def test_penalties_count_matches_clients(self, small_internet_matrix):
        predictor = MatrixPredictor(small_internet_matrix.with_filled_missing().values)
        result = select_by_predictor(
            small_internet_matrix, predictor, list(range(5)), list(range(5, 25))
        )
        assert result.penalties.size == 20

    def test_vivaldi_predictor_reasonable(self, small_internet_matrix, converged_vivaldi):
        candidates = list(range(0, 80, 8))
        clients = [i for i in range(80) if i not in candidates]
        result = select_by_predictor(small_internet_matrix, converged_vivaldi, candidates, clients)
        assert 0.0 <= result.exact_fraction <= 1.0
        assert np.isfinite(result.median_penalty())

    def test_size_mismatch_raises(self, small_internet_matrix):
        predictor = MatrixPredictor(np.zeros((5, 5)))
        with pytest.raises(NeighborSelectionError):
            select_by_predictor(small_internet_matrix, predictor, [0, 1], [2, 3])

    def test_empty_candidates_raise(self, small_internet_matrix, converged_vivaldi):
        with pytest.raises(NeighborSelectionError):
            select_by_predictor(small_internet_matrix, converged_vivaldi, [], [1, 2])


def _select_by_predictor_loop(matrix, predictor, candidates, clients):
    """Scalar oracle: the original per-client loop of select_by_predictor."""
    if predictor.n_nodes != matrix.n_nodes:
        raise NeighborSelectionError(
            "predictor and matrix cover a different number of nodes"
        )
    cand = np.asarray(list(candidates), dtype=int)
    if cand.size < 1:
        raise NeighborSelectionError("need at least one candidate")
    measured = matrix.values
    predicted = predictor.predicted_matrix()

    penalties: list[float] = []
    for client in clients:
        client = int(client)
        pool = cand[cand != client]
        if pool.size == 0:
            continue
        measured_delays = measured[client, pool]
        finite = np.isfinite(measured_delays)
        if not finite.any():
            continue
        pool_f = pool[finite]
        measured_f = measured_delays[finite]
        predicted_f = predicted[client, pool_f]
        selected = pool_f[int(np.argmin(predicted_f))]
        optimal_delay = float(measured_f.min())
        selected_delay = float(measured[client, selected])
        penalties.append(percentage_penalty(selected_delay, optimal_delay))

    if not penalties:
        raise NeighborSelectionError("no client produced a valid selection test")
    return NeighborSelectionResult(penalties=np.asarray(penalties), probes=0, n_runs=1)


@st.composite
def _selection_cases(draw):
    """A small delay matrix, a predictor and a candidate/client draw.

    Delays repeat (so optima tie), include zeros and holes (so some
    clients have no measured candidate); predictions repeat and include
    nan and +-inf.  Candidates repeat, and clients may be candidates.
    """
    n = draw(st.integers(min_value=2, max_value=8))
    delay = st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.5, np.nan])
    upper = np.array(draw(st.lists(delay, min_size=n * n, max_size=n * n))).reshape(n, n)
    upper = np.triu(upper, k=1)
    guess = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0, 2.0, 2.5])
    predicted = np.array(draw(st.lists(guess, min_size=n * n, max_size=n * n))).reshape(n, n)
    node = st.integers(min_value=0, max_value=n - 1)
    candidates = draw(st.lists(node, min_size=1, max_size=n + 2))
    clients = draw(st.lists(node, max_size=n + 2))
    matrix = DelayMatrix(upper + upper.T, symmetrize=False)
    return matrix, MatrixPredictor(predicted), candidates, clients


class TestSelectByPredictorOracle:
    """The whole-array selection equals the per-client loop it replaced."""

    @given(case=_selection_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_client_loop(self, case):
        matrix, predictor, candidates, clients = case
        try:
            expected = _select_by_predictor_loop(matrix, predictor, candidates, clients)
        except NeighborSelectionError as error:
            with pytest.raises(NeighborSelectionError, match=str(error)):
                select_by_predictor(matrix, predictor, candidates, clients)
            return
        actual = select_by_predictor(matrix, predictor, candidates, clients)
        assert actual.penalties.dtype == expected.penalties.dtype
        assert np.array_equal(actual.penalties, expected.penalties)

    def test_all_infinite_predictions_pick_a_valid_candidate(self):
        # Client 0 is also the first candidate and every other prediction
        # is +inf: the pick must be the first *other* candidate (penalty
        # 100 %), not the client's own masked column.
        delays = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        predicted = np.full((3, 3), np.inf)
        result = select_by_predictor(
            DelayMatrix(delays), MatrixPredictor(predicted), [0, 1, 2], [0]
        )
        assert result.penalties.tolist() == [100.0]


class TestNeighborSelectionResult:
    def test_pooling(self):
        a = NeighborSelectionResult(penalties=np.array([0.0, 10.0]), probes=5, n_runs=1)
        b = NeighborSelectionResult(penalties=np.array([20.0]), probes=7, n_runs=1)
        pooled = NeighborSelectionResult.pooled([a, b])
        assert pooled.penalties.size == 3
        assert pooled.probes == 12
        assert pooled.n_runs == 2

    def test_pool_empty_raises(self):
        with pytest.raises(NeighborSelectionError):
            NeighborSelectionResult.pooled([])

    def test_summary_and_cdf(self):
        result = NeighborSelectionResult(penalties=np.array([0.0, 0.0, 50.0, 150.0]))
        summary = result.summary()
        assert summary["exact_fraction"] == 0.5
        assert summary["median_penalty"] == 25.0
        cdf = result.cdf()
        assert cdf(0.0) == 0.5

    def test_cdf_handles_inf(self):
        result = NeighborSelectionResult(penalties=np.array([0.0, np.inf, 10.0]))
        cdf = result.cdf()
        assert len(cdf) == 3
        assert np.isfinite(cdf.values).all()


class TestCoordinateSelectionExperiment:
    def test_split_sizes(self, small_internet_matrix):
        experiment = CoordinateSelectionExperiment(
            small_internet_matrix, n_candidates=10, n_runs=3, rng=0
        )
        splits = experiment.splits()
        assert len(splits) == 3
        for candidates, clients in splits:
            assert candidates.size == 10
            assert clients.size == small_internet_matrix.n_nodes - 10
            assert not set(candidates.tolist()) & set(clients.tolist())

    def test_runs_pooled(self, small_internet_matrix, converged_vivaldi):
        experiment = CoordinateSelectionExperiment(
            small_internet_matrix, n_candidates=10, n_runs=2, rng=1
        )
        result = experiment.run(converged_vivaldi)
        assert result.n_runs == 2
        assert result.penalties.size == 2 * (small_internet_matrix.n_nodes - 10)

    def test_invalid_candidates_raises(self, small_internet_matrix):
        with pytest.raises(NeighborSelectionError):
            CoordinateSelectionExperiment(small_internet_matrix, n_candidates=0)
        with pytest.raises(NeighborSelectionError):
            CoordinateSelectionExperiment(
                small_internet_matrix, n_candidates=small_internet_matrix.n_nodes
            )
        with pytest.raises(NeighborSelectionError):
            CoordinateSelectionExperiment(small_internet_matrix, n_candidates=5, n_runs=0)

    def test_reproducible(self, small_internet_matrix, converged_vivaldi):
        def run():
            return CoordinateSelectionExperiment(
                small_internet_matrix, n_candidates=10, n_runs=2, rng=5
            ).run(converged_vivaldi)

        assert np.array_equal(run().penalties, run().penalties)

    def test_every_run_scores_the_same_splits(self, small_internet_matrix, converged_vivaldi):
        # fig15/16/17/22_23 score several predictors on one experiment, so
        # each run must see the candidate sets the first one saw.
        experiment = CoordinateSelectionExperiment(
            small_internet_matrix, n_candidates=10, n_runs=2, rng=5
        )
        first = experiment.run(converged_vivaldi)
        second = experiment.run(converged_vivaldi)
        assert np.array_equal(first.penalties, second.penalties)
        for (a, _), (b, _) in zip(experiment.splits(), experiment.splits()):
            assert np.array_equal(a, b)


class TestMeridianSelectionExperiment:
    def test_basic_run(self, small_internet_matrix):
        experiment = MeridianSelectionExperiment(
            small_internet_matrix,
            n_meridian=20,
            config=MeridianConfig(),
            n_runs=2,
            max_clients=15,
            rng=0,
        )
        result = experiment.run()
        assert result.penalties.size == 2 * 15
        assert result.probes > 0

    def test_invalid_meridian_count(self, small_internet_matrix):
        with pytest.raises(NeighborSelectionError):
            MeridianSelectionExperiment(small_internet_matrix, n_meridian=1)
        with pytest.raises(NeighborSelectionError):
            MeridianSelectionExperiment(
                small_internet_matrix, n_meridian=small_internet_matrix.n_nodes
            )

    @pytest.mark.parametrize("max_clients", [0, -3])
    def test_non_positive_max_clients_rejected(self, small_internet_matrix, max_clients):
        # 0 used to crash summary() inside np.quantile; a negative cap used
        # to silently drop the last clients through clients[:-3].
        with pytest.raises(NeighborSelectionError, match="max_clients"):
            MeridianSelectionExperiment(
                small_internet_matrix, n_meridian=20, max_clients=max_clients
            )

    def test_no_cap_evaluates_every_client(self, small_internet_matrix):
        result = MeridianSelectionExperiment(
            small_internet_matrix, n_meridian=70, n_runs=1, max_clients=None, rng=2
        ).run()
        assert result.penalties.size == small_internet_matrix.n_nodes - 70

    def test_overlay_kwargs_forwarded(self, small_internet_matrix):
        result = MeridianSelectionExperiment(
            small_internet_matrix,
            n_meridian=15,
            n_runs=1,
            max_clients=10,
            rng=1,
            overlay_kwargs={"full_membership": True},
        ).run()
        assert result.penalties.size == 10

    def test_reproducible(self, small_internet_matrix):
        def run():
            return MeridianSelectionExperiment(
                small_internet_matrix, n_meridian=15, n_runs=1, max_clients=10, rng=4
            ).run()

        assert np.array_equal(run().penalties, run().penalties)
