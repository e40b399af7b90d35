"""Tests for the streaming-update cache table and the Section 5.3 cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache_table import CacheTable
from repro.core.objectstore import make_object_store
from repro.core.search import BoundedTriples
from repro.core.cost_model import (
    DistanceDistribution,
    estimate_construction_cost,
    estimate_distance_distribution,
    estimate_query_cost,
    recommend_node_capacity,
    survival_probability,
)
from repro.exceptions import QueryError, UpdateError
from repro.gpusim import Device, DeviceSpec
from repro.metrics import EuclideanDistance


class TestCacheTable:
    def test_insert_and_contains(self):
        cache = CacheTable(1024)
        cache.insert(1)
        assert 1 in cache and len(cache) == 1
        assert cache.object_ids() == [1]

    def test_duplicate_insert_rejected(self):
        cache = CacheTable(1024)
        cache.insert(1)
        with pytest.raises(UpdateError):
            cache.insert(1)

    def test_remove(self):
        cache = CacheTable(1024)
        cache.insert(3)
        assert cache.remove(3)
        assert not cache.remove(3)
        assert len(cache) == 0

    def test_used_bytes_tracks_payload(self):
        """Used bytes are the store's byte count of the cached ids."""
        store = make_object_store(["abcd", "x" * 32, ""])
        cache = CacheTable(1024)
        cache.insert(0)
        cache.insert(1)
        assert cache.used_bytes(store) == 4 + 32
        cache.remove(0)
        assert cache.used_bytes(store) == 32
        cache.insert(2)
        assert cache.used_bytes(store) == 32 + 1  # an empty row costs 1 B

    def test_is_full_when_budget_exceeded(self):
        store = make_object_store(np.zeros((2, 1)))  # 8-byte rows
        cache = CacheTable(10)
        cache.insert(0)
        assert not cache.is_full(store)
        cache.insert(1)
        assert cache.is_full(store)

    def test_clear(self):
        store = make_object_store(["a"])
        cache = CacheTable(100)
        cache.insert(0)
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes(store) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(UpdateError):
            CacheTable(0)

    def test_device_allocation_and_release(self):
        device = Device(DeviceSpec())
        cache = CacheTable(2048, device=device)
        assert device.used_bytes == 2048
        cache.release()
        assert device.used_bytes == 0

    @staticmethod
    def _cached(rng, count, first_id=100):
        """A store whose rows ``first_id..`` are buffered in a fresh cache."""
        store = make_object_store(rng.normal(size=(first_id + count, 2)))
        cache = CacheTable(1 << 20)
        for i in range(first_id, first_id + count):
            cache.insert(i)
        return cache, store

    @staticmethod
    def _scan(cache, store, query, device=None, radius=None, k=None):
        """Scan ``cache`` over ``store`` for one query into a fresh accumulator."""
        results = BoundedTriples(
            1,
            None,
            radii=None if radius is None else np.array([radius], dtype=np.float64),
            k=None if k is None else np.array([k], dtype=np.int64),
        )
        cache.range_scan_batch(EuclideanDistance(), store, [query], results, device)
        return results.answers()[0]

    def test_range_scan_matches_brute_force(self, rng):
        cache, store = self._cached(rng, 20)
        pts = store.matrix[100:]
        hits = self._scan(cache, store, pts[0], radius=0.5)
        dists = EuclideanDistance().pairwise(pts[0], list(pts))
        expected = sorted((float(d), 100 + i) for i, d in enumerate(dists) if d <= 0.5)
        assert hits == [(i, d) for d, i in expected]

    def test_knn_scan_returns_k_smallest(self, rng):
        cache, store = self._cached(rng, 20, first_id=0)
        pts = store.matrix
        got = self._scan(cache, store, pts[0], k=3)
        dists = EuclideanDistance().pairwise(pts[0], list(pts))
        expected = sorted((float(d), i) for i, d in enumerate(dists))[:3]
        assert got == [(i, d) for d, i in expected]

    def test_scans_on_empty_cache(self, rng):
        cache = CacheTable(100)
        store = make_object_store(rng.normal(size=(5, 2)))
        assert self._scan(cache, store, np.zeros(2), radius=1.0) == []
        assert self._scan(cache, store, np.zeros(2), k=3) == []

    def test_scan_charges_device_time(self, rng):
        device = Device(DeviceSpec())
        _, store = self._cached(rng, 10, first_id=0)
        cache = CacheTable(1 << 16, device=device)
        for i in range(10):
            cache.insert(i)
        before = device.stats.kernel_launches
        self._scan(cache, store, np.zeros(2), radius=1.0)
        assert device.stats.kernel_launches == before + 1


class TestSurvivalProbability:
    def test_bounds(self):
        assert 0.02 <= survival_probability(1.0, 0.5) <= 1.0
        assert survival_probability(0.0, 1.0) == 1.0

    def test_monotone_in_radius(self):
        assert survival_probability(1.0, 2.0) >= survival_probability(1.0, 1.0)

    def test_zero_radius_floor(self):
        assert survival_probability(1.0, 0.0) == pytest.approx(0.02)


class TestQueryCostModel:
    def test_zero_objects_costs_nothing(self):
        assert estimate_query_cost(0, 20, DeviceSpec(), 1.0, 1.0) == 0.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(QueryError):
            estimate_query_cost(100, 1, DeviceSpec(), 1.0, 1.0)

    def test_cost_increases_with_dataset_size(self):
        spec = DeviceSpec()
        small = estimate_query_cost(1_000, 20, spec, sigma=1.0, radius=0.5)
        large = estimate_query_cost(1_000_000, 20, spec, sigma=1.0, radius=0.5)
        assert large > small

    def test_cost_increases_with_metric_cost(self):
        spec = DeviceSpec()
        cheap = estimate_query_cost(10_000, 20, spec, 1.0, 0.5, metric_unit_cost=1.0)
        expensive = estimate_query_cost(10_000, 20, spec, 1.0, 0.5, metric_unit_cost=500.0)
        assert expensive > cheap

    def test_more_cores_never_slower(self):
        few = estimate_query_cost(100_000, 20, DeviceSpec(cores=64), 1.0, 0.5)
        many = estimate_query_cost(100_000, 20, DeviceSpec(cores=8192), 1.0, 0.5)
        assert many <= few

    def test_construction_cost_scales_superlinearly_at_fixed_cores(self):
        # measure the work term alone (no fixed kernel-launch overhead)
        spec = DeviceSpec(cores=1024, kernel_launch_overhead=1e-15)
        c1 = estimate_construction_cost(10_000, 20, spec)
        c2 = estimate_construction_cost(100_000, 20, spec)
        assert c2 > 10 * c1 * 0.5  # at least roughly linear growth

    def test_construction_cost_zero_for_empty(self):
        assert estimate_construction_cost(0, 20, DeviceSpec()) == 0.0

    def test_recommend_node_capacity_from_candidates(self):
        spec = DeviceSpec()
        nc = recommend_node_capacity(50_000, spec, sigma=1.0, radius=0.3, candidates=(10, 20, 40, 80))
        assert nc in (10, 20, 40, 80)

    def test_recommend_requires_candidates(self):
        with pytest.raises(QueryError):
            recommend_node_capacity(1000, DeviceSpec(), 1.0, 1.0, candidates=())

    def test_recommendation_prefers_small_capacity_when_selective(self):
        """Strong pruning plus an expensive metric and n >> C favour deeper trees
        (small Nc): the extra levels are cheap next to the leaf verifications
        they avoid — the paper's "n >> C" regime of Section 5.3."""
        spec = DeviceSpec(cores=64)
        selective = recommend_node_capacity(
            1_000_000, spec, sigma=5.0, radius=1.0, candidates=(10, 320),
            metric_unit_cost=10_000.0,
        )
        assert selective == 10

    def test_recommendation_prefers_large_capacity_when_pruning_is_useless(self):
        """With no pruning signal, a shallow tree (large Nc) wins: more levels
        only add synchronisation without removing any verification work —
        the paper's "n << C" discussion of Section 5.3."""
        spec = DeviceSpec(cores=64)
        unselective = recommend_node_capacity(
            100_000, spec, sigma=0.01, radius=10.0, candidates=(10, 320),
            metric_unit_cost=1.0,
        )
        assert unselective == 320


class TestDistanceDistribution:
    def test_estimate_from_points(self, points_2d, l2_metric):
        dist = estimate_distance_distribution(points_2d, l2_metric, sample_size=64)
        assert dist.mean > 0 and dist.std > 0 and dist.max >= dist.mean
        assert dist.sample_size > 0

    def test_variance_property(self):
        d = DistanceDistribution(mean=1.0, std=2.0, max=5.0, sample_size=10)
        assert d.variance == pytest.approx(4.0)

    def test_requires_two_objects(self, l2_metric):
        with pytest.raises(QueryError):
            estimate_distance_distribution(np.zeros((1, 2)), l2_metric)

    def test_deterministic_given_rng(self, points_2d, l2_metric):
        a = estimate_distance_distribution(points_2d, l2_metric, rng=np.random.default_rng(1))
        b = estimate_distance_distribution(points_2d, l2_metric, rng=np.random.default_rng(1))
        assert a.mean == b.mean and a.std == b.std
