"""Correctness tests for batch MRQ (Algorithm 4) and batch MkNNQ (Algorithm 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construction import build_tree
from repro.core.search import batch_knn_query, batch_range_query
from repro.core.searchcommon import PruneMode
from repro.exceptions import QueryError
from repro.gpusim import Device, DeviceSpec
from repro.metrics import AngularDistance, EditDistance, EuclideanDistance
from tests.conftest import brute_force_knn, brute_force_range


def _build(objects, metric, nc=8):
    device = Device(DeviceSpec())
    result = build_tree(objects, np.arange(len(objects)), metric, nc, device)
    return result.tree, device


class TestRangeQueryCorrectness:
    @pytest.mark.parametrize("nc", [2, 4, 20, 64])
    def test_matches_brute_force_2d(self, points_2d, l2_metric, nc):
        tree, device = _build(points_2d, l2_metric, nc=nc)
        queries = [points_2d[i] + 0.05 for i in range(10)]
        radius = 1.0
        got = batch_range_query(tree, points_2d, l2_metric, device, queries, radius)
        for qi, query in enumerate(queries):
            expected = brute_force_range(points_2d, l2_metric, query, radius)
            assert [o for o, _ in got[qi]] == [o for o, _ in expected]

    def test_matches_brute_force_strings(self, word_list, edit_metric):
        tree, device = _build(word_list, edit_metric, nc=4)
        queries = ["metric", "pivott", "xyz"]
        got = batch_range_query(tree, word_list, edit_metric, device, queries, 2.0)
        for qi, query in enumerate(queries):
            expected = brute_force_range(word_list, edit_metric, query, 2.0)
            assert set(o for o, _ in got[qi]) == set(o for o, _ in expected)

    def test_per_query_radii(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        queries = [points_2d[0], points_2d[1]]
        radii = [0.5, 2.0]
        got = batch_range_query(tree, points_2d, l2_metric, device, queries, radii)
        for qi in range(2):
            expected = brute_force_range(points_2d, l2_metric, queries[qi], radii[qi])
            assert set(o for o, _ in got[qi]) == set(o for o, _ in expected)

    def test_zero_radius_returns_exact_duplicates_only(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        got = batch_range_query(tree, points_2d, l2_metric, device, [points_2d[7]], 0.0)
        assert all(d == 0.0 for _, d in got[0])
        assert 7 in {o for o, _ in got[0]}

    def test_radius_larger_than_diameter_returns_everything(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        got = batch_range_query(tree, points_2d, l2_metric, device, [points_2d[0]], 1e9)
        assert len(got[0]) == len(points_2d)

    def test_results_sorted_by_distance(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        got = batch_range_query(tree, points_2d, l2_metric, device, [points_2d[0]], 3.0)[0]
        dists = [d for _, d in got]
        assert dists == sorted(dists)

    def test_negative_radius_rejected(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        with pytest.raises(QueryError):
            batch_range_query(tree, points_2d, l2_metric, device, [points_2d[0]], -1.0)

    def test_empty_query_batch(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        assert batch_range_query(tree, points_2d, l2_metric, device, [], 1.0) == []

    def test_exclude_hides_objects(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        query = points_2d[11]
        full = batch_range_query(tree, points_2d, l2_metric, device, [query], 1.0)[0]
        assert 11 in {o for o, _ in full}
        hidden = batch_range_query(
            tree, points_2d, l2_metric, device, [query], 1.0, exclude={11}
        )[0]
        assert 11 not in {o for o, _ in hidden}
        assert {o for o, _ in hidden} == {o for o, _ in full} - {11}

    def test_one_sided_mode_still_exact(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        queries = [points_2d[i] for i in range(5)]
        two = batch_range_query(tree, points_2d, l2_metric, device, queries, 1.0, prune_mode="two-sided")
        one = batch_range_query(tree, points_2d, l2_metric, device, queries, 1.0, prune_mode="one-sided")
        for a, b in zip(two, one):
            assert set(o for o, _ in a) == set(o for o, _ in b)

    def test_one_sided_mode_computes_more_distances(self, points_highdim, l1_metric):
        tree, device = _build(points_highdim, l1_metric, nc=4)
        queries = [points_highdim[i] for i in range(8)]
        l1_metric.reset_counter()
        batch_range_query(tree, points_highdim, l1_metric, device, queries, 2.0, prune_mode="two-sided")
        two_sided = l1_metric.pair_count
        l1_metric.reset_counter()
        batch_range_query(tree, points_highdim, l1_metric, device, queries, 2.0, prune_mode="one-sided")
        one_sided = l1_metric.pair_count
        assert one_sided >= two_sided

    def test_pruning_reduces_distance_computations(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric, nc=8)
        l2_metric.reset_counter()
        batch_range_query(tree, points_2d, l2_metric, device, [points_2d[0]], 0.5)
        assert l2_metric.pair_count < len(points_2d)

    def test_duplicate_heavy_dataset_exact(self, l2_metric, rng):
        base = rng.normal(size=(30, 2))
        pts = base[rng.integers(0, 30, size=400)]
        tree, device = _build(pts, l2_metric, nc=4)
        got = batch_range_query(tree, pts, l2_metric, device, [pts[0]], 0.2)[0]
        expected = brute_force_range(pts, l2_metric, pts[0], 0.2)
        assert set(o for o, _ in got) == set(o for o, _ in expected)

    def test_unknown_prune_mode_rejected(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        with pytest.raises(QueryError):
            batch_range_query(tree, points_2d, l2_metric, device, [points_2d[0]], 1.0, prune_mode="bogus")


class TestKnnQueryCorrectness:
    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_distances_match_brute_force(self, points_2d, l2_metric, k):
        tree, device = _build(points_2d, l2_metric)
        queries = [points_2d[i] + 0.03 for i in range(8)]
        got = batch_knn_query(tree, points_2d, l2_metric, device, queries, k)
        for qi, query in enumerate(queries):
            expected = brute_force_knn(points_2d, l2_metric, query, k)
            np.testing.assert_allclose(
                sorted(d for _, d in got[qi]), sorted(d for _, d in expected), atol=1e-9
            )

    def test_string_knn(self, word_list, edit_metric):
        tree, device = _build(word_list, edit_metric, nc=4)
        got = batch_knn_query(tree, word_list, edit_metric, device, ["metric"], 5)[0]
        expected = brute_force_knn(word_list, edit_metric, "metric", 5)
        assert sorted(d for _, d in got) == sorted(d for _, d in expected)

    def test_k_exceeding_dataset_returns_all(self, l2_metric, rng):
        pts = rng.normal(size=(20, 2))
        tree, device = _build(pts, l2_metric, nc=4)
        got = batch_knn_query(tree, pts, l2_metric, device, [pts[0]], 100)[0]
        assert len(got) == 20

    def test_k_one_returns_nearest(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        got = batch_knn_query(tree, points_2d, l2_metric, device, [points_2d[5]], 1)[0]
        assert got[0][0] == 5 and got[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_per_query_k(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        got = batch_knn_query(tree, points_2d, l2_metric, device, [points_2d[0], points_2d[1]], [1, 4])
        assert len(got[0]) == 1 and len(got[1]) == 4

    def test_invalid_k_rejected(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        with pytest.raises(QueryError):
            batch_knn_query(tree, points_2d, l2_metric, device, [points_2d[0]], 0)

    def test_results_sorted_and_unique(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        got = batch_knn_query(tree, points_2d, l2_metric, device, [points_2d[0]], 10)[0]
        ids = [o for o, _ in got]
        dists = [d for _, d in got]
        assert len(set(ids)) == len(ids)
        assert dists == sorted(dists)

    def test_exclude_hides_objects(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        got = batch_knn_query(tree, points_2d, l2_metric, device, [points_2d[3]], 5, exclude={3})[0]
        assert 3 not in {o for o, _ in got}
        assert len(got) == 5

    def test_one_sided_mode_still_exact(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        queries = [points_2d[i] for i in range(5)]
        two = batch_knn_query(tree, points_2d, l2_metric, device, queries, 7, prune_mode="two-sided")
        one = batch_knn_query(tree, points_2d, l2_metric, device, queries, 7, prune_mode="one-sided")
        for a, b in zip(two, one):
            np.testing.assert_allclose([d for _, d in a], [d for _, d in b], atol=1e-9)

    def test_pruning_reduces_distance_computations(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric, nc=8)
        l2_metric.reset_counter()
        batch_knn_query(tree, points_2d, l2_metric, device, [points_2d[0]], 3)
        assert l2_metric.pair_count < len(points_2d)

    def test_empty_query_batch(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        assert batch_knn_query(tree, points_2d, l2_metric, device, [], 3) == []

    def test_degenerate_single_leaf_tree(self, l2_metric, rng):
        pts = rng.normal(size=(5, 2))
        tree, device = _build(pts, l2_metric, nc=16)
        assert tree.height == 0
        got = batch_knn_query(tree, pts, l2_metric, device, [pts[2]], 2)[0]
        expected = brute_force_knn(pts, l2_metric, pts[2], 2)
        np.testing.assert_allclose([d for _, d in got], [d for _, d in expected])


def _collinear_points(n: int, rng) -> np.ndarray:
    """2-d points on one line: query, object and pivot are always collinear,
    so the triangle inequality behind pruning holds with equality."""
    return np.outer(rng.uniform(-100, 100, size=n), [0.822, 1.096]) + np.array([3.3, -7.1])


def _great_circle_points(n: int, rng) -> np.ndarray:
    """3-d vectors of assorted lengths on one plane through the origin: the
    angular analogue of collinear points."""
    theta = rng.uniform(0, np.pi, size=n)
    return np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)]) * rng.uniform(
        0.5, 2.0, size=(n, 1)
    )


class TestRoundingAtTheRadius:
    """Range queries find an object at exactly the radius, however the
    distances of its pruning tests rounded."""

    CASES = {"l2-collinear": (_collinear_points, EuclideanDistance),
             "angular-great-circle": (_great_circle_points, AngularDistance)}

    def _missed(self, case: str) -> int:
        make_points, make_metric = self.CASES[case]
        rng = np.random.default_rng(5)
        objects, metric = make_points(1000, rng), make_metric()
        tree, device = _build(objects, metric, nc=4)
        queries, targets = rng.integers(len(objects), size=(2, 400))
        # each radius is the engine's own distance from the query to its target
        radii = np.array(
            [metric.pairwise(objects[q], objects[t : t + 1])[0] for q, t in zip(queries, targets)]
        )
        got = batch_range_query(tree, objects, metric, device, list(objects[queries]), radii)
        return sum(t not in {oid for oid, _ in answer} for answer, t in zip(got, targets))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_object_at_the_radius_is_found(self, case):
        assert self._missed(case) == 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raw_floating_point_pruning_misses_some(self, case, monkeypatch):
        # the cases above exercise the rounding the widened tests absorb
        monkeypatch.setattr(self.CASES[case][1], "distance_error", lambda self: (0.0, 0.0))
        assert self._missed(case) > 0


class TestDeviceAccountingDuringQueries:
    def test_intermediate_memory_is_released(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        used_before = device.used_bytes
        batch_range_query(tree, points_2d, l2_metric, device, [points_2d[0]] * 16, 1.0)
        batch_knn_query(tree, points_2d, l2_metric, device, [points_2d[0]] * 16, 5)
        assert device.used_bytes == used_before

    def test_kernel_launches_recorded(self, points_2d, l2_metric):
        tree, device = _build(points_2d, l2_metric)
        before = device.stats.kernel_launches
        batch_range_query(tree, points_2d, l2_metric, device, [points_2d[0]] * 8, 1.0)
        assert device.stats.kernel_launches > before

    def test_batch_cheaper_than_sequential_per_query(self, points_2d, l2_metric):
        """Answering 32 queries in one batch takes less simulated time than 32 batches of 1."""
        tree, device = _build(points_2d, l2_metric)
        queries = [points_2d[i] for i in range(32)]
        before = device.stats.sim_time
        batch_range_query(tree, points_2d, l2_metric, device, queries, 1.0)
        batched = device.stats.sim_time - before
        before = device.stats.sim_time
        for q in queries:
            batch_range_query(tree, points_2d, l2_metric, device, [q], 1.0)
        sequential = device.stats.sim_time - before
        assert batched < sequential
