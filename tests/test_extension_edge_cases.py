"""Failure-injection and edge-case tests for the extension subsystems.

These tests complement the per-module suites: they exercise the corners a
downstream user hits first — tiny datasets that collapse the tree to a single
leaf, memory-starved devices, indexes whose content changed after an
approximate helper was attached, and CLI / persistence misuse.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EuclideanDistance
from repro.approx import ApproximateGTS, LearnedLeafRouter
from repro.baselines import GNAT, LAESA, ExtremePivotsTable, ListOfClusters, MTree
from repro.core import load_index
from repro.exceptions import DeviceMemoryError, MetricError, QueryError
from repro.gpusim import Device, DeviceSpec
from repro.metrics import HausdorffDistance, JaccardDistance


# --------------------------------------------------------------------------
# Tiny datasets: the tree degenerates to a single (over-full) root leaf
# --------------------------------------------------------------------------
class TestTinyDatasets:
    @pytest.fixture
    def tiny_index(self) -> GTS:
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        return GTS.build(points, EuclideanDistance(), node_capacity=20)

    def test_tiny_tree_is_a_single_leaf(self, tiny_index):
        assert tiny_index.height == 0
        assert len(tiny_index.tree.leaves()) == 1

    def test_approximate_beam_on_single_leaf_is_exact(self, tiny_index):
        approx = ApproximateGTS(tiny_index, beam_width=1)
        assert approx.knn_query([0.0, 0.0], 2) == tiny_index.knn_query([0.0, 0.0], 2)

    def test_learned_router_on_single_leaf_is_exact(self, tiny_index):
        router = LearnedLeafRouter(tiny_index, leaf_budget=1, training_queries=[[0.5, 0.5]])
        assert router.knn_query([0.0, 0.0], 2) == tiny_index.knn_query([0.0, 0.0], 2)

    def test_k_larger_than_dataset(self, tiny_index):
        approx = ApproximateGTS(tiny_index, beam_width=4)
        assert len(approx.knn_query([0.0, 0.0], 50)) == 3

    @pytest.mark.parametrize("cls", [LAESA, ListOfClusters, ExtremePivotsTable, MTree, GNAT])
    def test_extended_baselines_on_two_objects(self, cls):
        index = cls(EuclideanDistance())
        index.build(np.array([[0.0, 0.0], [5.0, 5.0]]))
        got = index.knn_query([0.1, 0.1], 1)
        assert got[0][0] == 0
        assert {o for o, _ in index.range_query([0.0, 0.0], 100.0)} == {0, 1}


# --------------------------------------------------------------------------
# Memory pressure on the simulated device
# --------------------------------------------------------------------------
class TestMemoryPressure:
    def test_loading_into_too_small_device_raises(self, points_2d, tmp_path):
        index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8)
        path = index.save(tmp_path / "index.npz")
        starved = Device(DeviceSpec(memory_bytes=1024))
        with pytest.raises(DeviceMemoryError):
            load_index(path, device=starved)

    def test_approximate_search_works_on_small_device(self, points_2d):
        # the beam verifies only a handful of leaves, so a small result buffer
        # is enough even when the exact search would need grouping
        device = Device(DeviceSpec(memory_bytes=4 * 1024 * 1024))
        index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8, device=device)
        approx = ApproximateGTS(index, beam_width=2)
        queries = [points_2d[i] for i in range(16)]
        results = approx.knn_query_batch(queries, 5)
        assert all(len(r) == 5 for r in results)


# --------------------------------------------------------------------------
# Content changes after attaching approximate helpers
# --------------------------------------------------------------------------
class TestApproxAfterUpdates:
    def test_beam_sees_tombstones_immediately(self, points_2d):
        index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8)
        approx = ApproximateGTS(index, beam_width=10_000)
        target = approx.knn_query(points_2d[5], 1)[0][0]
        index.delete(target)
        assert target not in {o for o, _ in approx.knn_query(points_2d[5], 3)}

    def test_router_over_rebuilt_index_must_be_recreated(self, points_2d):
        index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8)
        router = LearnedLeafRouter(index, leaf_budget=2, training_queries=points_2d[:8])
        index.batch_update(inserts=[np.array([1000.0, 1000.0])])
        fresh = LearnedLeafRouter(index, leaf_budget=2, training_queries=points_2d[:8])
        got = fresh.knn_query(np.array([1000.0, 1000.0]), 1)
        assert got[0][1] == pytest.approx(0.0, abs=1e-9)
        # a fresh router is no longer required: the old one re-describes the
        # rebuilt tree's leaves, keeping its fitted weights
        assert router.leaf_budget == 2
        assert sorted(router.rank_leaves(points_2d[0]).tolist()) == sorted(
            index.tree.leaves().tolist()
        )


# --------------------------------------------------------------------------
# Metric misuse
# --------------------------------------------------------------------------
class TestMetricMisuse:
    def test_jaccard_rejects_plain_numbers(self):
        with pytest.raises((MetricError, TypeError)):
            JaccardDistance().validate_objects([1, 2, 3])

    def test_hausdorff_rejects_empty_member_set(self):
        with pytest.raises(MetricError):
            HausdorffDistance().validate_objects([np.zeros((0, 2))])

    def test_unknown_prune_mode_rejected(self, points_2d):
        with pytest.raises(QueryError):
            GTS.build(points_2d[:10], EuclideanDistance(), prune_mode="sideways")


# --------------------------------------------------------------------------
# Persistence corners
# --------------------------------------------------------------------------
class TestPersistenceCorners:
    def test_round_trip_after_many_updates_and_rebuild(self, points_2d, tmp_path):
        index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8,
                          cache_capacity_bytes=256)
        rng = np.random.default_rng(0)
        for i in range(40):
            index.insert(rng.normal(scale=20.0, size=2))
            if i % 7 == 0:
                index.delete(i)
        assert index.rebuild_count > 0
        path = index.save(tmp_path / "churned.npz")
        loaded = GTS.load(path)
        queries = [points_2d[3], np.array([0.0, 0.0])]
        assert loaded.knn_query_batch(queries, 6) == index.knn_query_batch(queries, 6)

    def test_round_trip_of_jaccard_index(self, tmp_path, rng):
        objects = [frozenset(rng.choice(20, size=4, replace=False).tolist()) for _ in range(80)]
        index = GTS.build(objects, JaccardDistance(), node_capacity=6)
        path = index.save(tmp_path / "tags.npz")
        loaded = GTS.load(path)  # jaccard is a registered metric: no explicit metric needed
        assert loaded.knn_query(objects[0], 3) == index.knn_query(objects[0], 3)
