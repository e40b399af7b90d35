"""Tests for the approximate-search extension (repro.approx)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EditDistance, EuclideanDistance
from repro.approx import (
    ApproximateGTS,
    LearnedLeafRouter,
    knn_recall,
    mean_knn_recall,
    mean_range_recall,
    range_recall,
)
from repro.exceptions import QueryError
from tests.conftest import brute_force_knn, brute_force_range


def _ids(results):
    return {o for o, _ in results}


@pytest.fixture
def built_index(points_2d) -> GTS:
    return GTS.build(points_2d, EuclideanDistance(), node_capacity=8, seed=3)


@pytest.fixture
def word_index(word_list) -> GTS:
    return GTS.build(word_list, EditDistance(), node_capacity=8, seed=3)


class TestApproximateGTS:
    def test_invalid_beam_width(self, built_index):
        with pytest.raises(QueryError):
            ApproximateGTS(built_index, beam_width=0)

    def test_knn_returns_true_distances(self, built_index, points_2d, l2_metric):
        approx = ApproximateGTS(built_index, beam_width=2)
        query = points_2d[7] + 0.01
        for obj_id, dist in approx.knn_query(query, 5):
            assert dist == pytest.approx(l2_metric.distance(query, points_2d[obj_id]))

    def test_knn_result_size(self, built_index, points_2d):
        approx = ApproximateGTS(built_index, beam_width=2)
        got = approx.knn_query(points_2d[0], 5)
        assert len(got) == 5

    def test_wide_beam_matches_exact(self, built_index, points_2d, l2_metric):
        # a beam at least as wide as the number of leaves cannot drop anything
        wide = ApproximateGTS(built_index, beam_width=10_000)
        query = points_2d[13] + 0.02
        got = wide.knn_query(query, 8)
        expected = brute_force_knn(points_2d, l2_metric, query, 8)
        assert sorted(d for _, d in got) == pytest.approx(sorted(d for _, d in expected))

    def test_range_results_are_subset_of_exact(self, built_index, points_2d, l2_metric):
        approx = ApproximateGTS(built_index, beam_width=2)
        query = points_2d[21] + 0.05
        got = approx.range_query(query, 1.0)
        exact = brute_force_range(points_2d, l2_metric, query, 1.0)
        assert _ids(got) <= _ids(exact)
        for obj_id, dist in got:
            assert dist <= 1.0

    def test_wide_beam_range_matches_exact(self, built_index, points_2d, l2_metric):
        wide = ApproximateGTS(built_index, beam_width=10_000)
        query = points_2d[33] + 0.02
        got = wide.range_query(query, 0.8)
        exact = brute_force_range(points_2d, l2_metric, query, 0.8)
        assert _ids(got) == _ids(exact)

    def test_recall_improves_with_beam_width(self, built_index, points_2d):
        queries = [points_2d[i] + 0.01 for i in (5, 50, 150, 250)]
        exact = built_index.knn_query_batch(queries, 10)
        recalls = []
        for width in (1, 4, 64):
            approx = ApproximateGTS(built_index, beam_width=width)
            got = approx.knn_query_batch(queries, 10)
            recalls.append(mean_knn_recall(got, exact))
        assert recalls[0] <= recalls[-1] + 1e-9
        assert recalls[-1] == pytest.approx(1.0)

    def test_fewer_distances_than_exact(self, points_2d):
        metric = EuclideanDistance()
        index = GTS.build(points_2d, metric, node_capacity=8, seed=3)
        queries = [points_2d[i] + 0.3 for i in (10, 20, 30)]
        metric.reset_counter()
        index.knn_query_batch(queries, 10)
        exact_pairs = metric.pair_count
        metric.reset_counter()
        ApproximateGTS(index, beam_width=1).knn_query_batch(queries, 10)
        approx_pairs = metric.pair_count
        assert approx_pairs < exact_pairs

    def test_batch_invalid_k(self, built_index, points_2d):
        approx = ApproximateGTS(built_index, beam_width=2)
        with pytest.raises(QueryError):
            approx.knn_query_batch([points_2d[0]], 0)

    def test_negative_radius_rejected(self, built_index, points_2d):
        approx = ApproximateGTS(built_index, beam_width=2)
        with pytest.raises(QueryError):
            approx.range_query(points_2d[0], -1.0)

    def test_string_metric_space(self, word_index, word_list):
        approx = ApproximateGTS(word_index, beam_width=4)
        got = approx.knn_query("metric", 3)
        metric = EditDistance()
        for obj_id, dist in got:
            assert dist == metric.distance("metric", word_list[obj_id])

    def test_respects_deletions(self, points_2d):
        index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8, seed=3)
        index.delete(0)
        approx = ApproximateGTS(index, beam_width=10_000)
        got = approx.knn_query(points_2d[0], 5)
        assert 0 not in _ids(got)

    def test_charges_simulated_device_time(self, built_index, points_2d):
        before = built_index.device.stats.sim_time
        ApproximateGTS(built_index, beam_width=2).knn_query(points_2d[0], 3)
        assert built_index.device.stats.sim_time > before

    def test_cost_ratio_estimate_bounds(self, built_index):
        narrow = ApproximateGTS(built_index, beam_width=1)
        wide = ApproximateGTS(built_index, beam_width=10_000)
        assert 0.0 < narrow.cost_ratio_estimate() <= 1.0
        assert wide.cost_ratio_estimate() == pytest.approx(1.0)

    def test_empty_batch(self, built_index):
        approx = ApproximateGTS(built_index, beam_width=2)
        assert approx.knn_query_batch([], 3) == []
        assert approx.range_query_batch([], 1.0) == []


class TestLearnedLeafRouter:
    def test_invalid_budget(self, built_index):
        with pytest.raises(QueryError):
            LearnedLeafRouter(built_index, leaf_budget=0)

    def test_unfitted_query_rejected(self, built_index, points_2d):
        router = LearnedLeafRouter(built_index, leaf_budget=2)
        assert not router.is_fitted
        with pytest.raises(QueryError):
            router.knn_query(points_2d[0], 3)

    def test_fit_on_empty_training_set_rejected(self, built_index):
        router = LearnedLeafRouter(built_index, leaf_budget=2)
        with pytest.raises(QueryError):
            router.fit([])

    def test_returns_true_distances(self, built_index, points_2d, l2_metric, rng):
        train = points_2d[rng.choice(len(points_2d), size=16, replace=False)]
        router = LearnedLeafRouter(built_index, leaf_budget=3, training_queries=train)
        query = points_2d[9] + 0.01
        for obj_id, dist in router.knn_query(query, 4):
            assert dist == pytest.approx(l2_metric.distance(query, points_2d[obj_id]))

    def test_full_budget_matches_exact(self, built_index, points_2d, l2_metric, rng):
        num_leaves = len(built_index.tree.leaves())
        train = points_2d[rng.choice(len(points_2d), size=8, replace=False)]
        router = LearnedLeafRouter(built_index, leaf_budget=num_leaves, training_queries=train)
        query = points_2d[40] + 0.02
        got = router.knn_query(query, 6)
        expected = brute_force_knn(points_2d, l2_metric, query, 6)
        assert sorted(d for _, d in got) == pytest.approx(sorted(d for _, d in expected))

    def test_rank_leaves_returns_all_leaves(self, built_index, points_2d, rng):
        train = points_2d[rng.choice(len(points_2d), size=8, replace=False)]
        router = LearnedLeafRouter(built_index, leaf_budget=2, training_queries=train)
        ranked = router.rank_leaves(points_2d[0])
        assert sorted(ranked.tolist()) == sorted(built_index.tree.leaves().tolist())

    def test_range_results_are_subset_of_exact(self, built_index, points_2d, l2_metric, rng):
        train = points_2d[rng.choice(len(points_2d), size=8, replace=False)]
        router = LearnedLeafRouter(built_index, leaf_budget=2, training_queries=train)
        query = points_2d[60] + 0.03
        got = router.range_query(query, 1.0)
        exact = brute_force_range(points_2d, l2_metric, query, 1.0)
        assert _ids(got) <= _ids(exact)

    def test_reasonable_recall_on_clustered_data(self, built_index, points_2d, rng):
        """Routing by learned pivot features should beat random leaf choice."""
        train = points_2d[rng.choice(len(points_2d), size=32, replace=False)]
        router = LearnedLeafRouter(built_index, leaf_budget=4, training_queries=train)
        queries = [points_2d[i] + 0.01 for i in (3, 33, 111, 222)]
        exact = built_index.knn_query_batch(queries, 5)
        got = router.knn_query_batch(queries, 5)
        assert mean_knn_recall(got, exact) >= 0.5

    def test_batch_wrappers(self, built_index, points_2d, rng):
        train = points_2d[rng.choice(len(points_2d), size=8, replace=False)]
        router = LearnedLeafRouter(built_index, leaf_budget=2, training_queries=train)
        queries = [points_2d[0], points_2d[1]]
        assert len(router.knn_query_batch(queries, 3)) == 2
        assert len(router.range_query_batch(queries, 0.5)) == 2

    def test_negative_radius_rejected(self, built_index, points_2d, rng):
        train = points_2d[rng.choice(len(points_2d), size=8, replace=False)]
        router = LearnedLeafRouter(built_index, leaf_budget=2, training_queries=train)
        with pytest.raises(QueryError):
            router.range_query(points_2d[0], -0.5)


def _beam(index, points):
    return ApproximateGTS(index, beam_width=2)


def _learned(index, points):
    return LearnedLeafRouter(index, leaf_budget=2, training_queries=points[:8])


@pytest.mark.parametrize("make", [_beam, _learned], ids=["beam", "learned"])
class TestApproximateValidation:
    """Both approximate engines validate radii and ``k`` like the exact one."""

    @pytest.mark.parametrize("radius", [float("nan"), -0.5, [0.5, float("nan")]])
    def test_invalid_radius_rejected(self, make, built_index, points_2d, radius):
        engine = make(built_index, points_2d)
        with pytest.raises(QueryError):
            engine.range_query_batch([points_2d[0], points_2d[1]], radius)
        if np.ndim(radius) == 0:
            with pytest.raises(QueryError):
                engine.range_query(points_2d[0], radius)

    @pytest.mark.parametrize("k", [2.7, 0, -1, float("nan"), float("inf")])
    def test_invalid_k_rejected(self, make, built_index, points_2d, k):
        engine = make(built_index, points_2d)
        with pytest.raises(QueryError):
            engine.knn_query_batch([points_2d[0]], k)
        with pytest.raises(QueryError):
            engine.knn_query(points_2d[0], k)

    def test_integral_float_k_accepted(self, make, built_index, points_2d):
        engine = make(built_index, points_2d)
        expected = engine.knn_query(points_2d[0], 3)
        assert engine.knn_query(points_2d[0], 3.0) == expected
        assert engine.knn_query_batch([points_2d[0]], np.int64(3)) == [expected]


class TestRecallUtilities:
    def test_perfect_recall(self):
        exact = [(1, 0.1), (2, 0.2), (3, 0.3)]
        assert knn_recall(exact, exact) == 1.0
        assert range_recall(exact, exact) == 1.0

    def test_partial_recall(self):
        exact = [(1, 0.1), (2, 0.2), (3, 0.3), (4, 0.4)]
        approx = [(1, 0.1), (3, 0.3)]
        assert knn_recall(approx, exact) == pytest.approx(0.5)
        assert range_recall(approx, exact) == pytest.approx(0.5)

    def test_empty_exact_answer(self):
        assert knn_recall([], []) == 1.0
        assert range_recall([(1, 0.5)], []) == 1.0

    def test_tie_tolerance(self):
        # a different id at exactly the k-th distance is an equally valid answer
        exact = [(1, 0.1), (2, 0.5)]
        approx = [(1, 0.1), (9, 0.5)]
        assert knn_recall(approx, exact) == 1.0

    def test_mean_recall_batch_mismatch(self):
        with pytest.raises(QueryError):
            mean_knn_recall([[(1, 0.1)]], [])
        with pytest.raises(QueryError):
            mean_range_recall([], [[(1, 0.1)]])

    def test_mean_recall_values(self):
        exact = [[(1, 0.1), (2, 0.2)], [(3, 0.3), (4, 0.4)]]
        approx = [[(1, 0.1), (2, 0.2)], [(3, 0.3)]]
        assert mean_knn_recall(approx, exact) == pytest.approx(0.75)
        assert mean_range_recall(approx, exact) == pytest.approx(0.75)

    def test_empty_batches(self):
        assert mean_knn_recall([], []) == 1.0
        assert mean_range_recall([], []) == 1.0
