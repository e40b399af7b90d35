"""Tests for the non-blocking update path (DESIGN.md §9).

Covers the incremental maintenance subsystem (generation-swap rebuilds in
bounded slices), the batched cache-table scans, the update-path bugfixes
(oversized inserts, no-op batch updates, the automatic/forced rebuild-count
split), the serving-layer maintenance hook, and the staggered shard
schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EditDistance, EuclideanDistance
from repro.baselines import LinearScan
from repro.core import MaintenanceConfig
from repro.core.cache_table import CacheTable
from repro.core.objectstore import make_object_store
from repro.core.search import BoundedTriples
from repro.exceptions import UpdateError
from repro.gpusim import Device, DeviceSpec
from repro.service import (
    GTSService,
    MaintenanceHook,
    WorkloadSpec,
    generate_workload,
    summarize,
)
from repro.service.experiment import UPDATE_HEAVY_MIX, sequential_replay
from repro.shard import ShardedGTS
from repro.tier import TierConfig


# --------------------------------------------------------------------------
# Batched cache scans
# --------------------------------------------------------------------------
def _scan(cache, store, metric, queries, device, radii=None, k=None):
    """Scan ``cache`` over ``store`` into a fresh accumulator and read back its answers."""
    results = BoundedTriples(
        len(queries),
        None,
        radii=None if radii is None else np.asarray(radii, dtype=np.float64),
        k=None if k is None else np.asarray(k, dtype=np.int64),
    )
    cache.range_scan_batch(metric, store, queries, results, device)
    return results.answers()


def _brute_force(cache, store, metric, query, radius=np.inf, k=None):
    """The cache's answer by ``metric.pairwise`` and a ``(distance, id)`` sort."""
    ids = cache.object_ids()
    dists = metric.pairwise(query, [store[i] for i in ids])
    ranked = sorted((float(d), int(i)) for i, d in zip(ids, dists) if d <= radius)
    return [(i, d) for d, i in ranked[:k]]


def _cache_over(objects, cached_ids, device):
    """A cache buffering ``cached_ids`` of a store built from ``objects``."""
    store = make_object_store(objects)
    cache = CacheTable(1 << 20, device=device)
    for i in cached_ids:
        cache.insert(i)
    return cache, store


class TestBatchedCacheScans:
    @pytest.fixture
    def cached(self, rng, device):
        # rows 100..136 are the cached inserts; the rest stand for the tree
        return _cache_over(rng.normal(size=(137, 4)), range(100, 137), device)

    def test_range_scan_batch_matches_per_query(self, cached, rng, device):
        cache, store = cached
        metric = EuclideanDistance()
        queries = [rng.normal(size=4) for _ in range(9)]
        radii = np.linspace(0.5, 3.0, num=9)
        expected = [
            _brute_force(cache, store, metric, q, radius=r) for q, r in zip(queries, radii)
        ]
        assert _scan(cache, store, metric, queries, device, radii=radii) == expected

    def test_knn_scan_batch_matches_per_query(self, cached, rng, device):
        cache, store = cached
        metric = EuclideanDistance()
        queries = [rng.normal(size=4) for _ in range(7)]
        ks = np.array([1, 2, 3, 5, 8, 37, 100])
        expected = [_brute_force(cache, store, metric, q, k=int(k)) for q, k in zip(queries, ks)]
        assert _scan(cache, store, metric, queries, device, k=ks) == expected

    def test_batch_scan_launches_one_kernel_and_same_pairs(self, cached, rng, device):
        cache, store = cached
        metric = EuclideanDistance()
        queries = [rng.normal(size=4) for _ in range(11)]
        before_kernels = device.stats.kernel_launches
        before_pairs = metric.pair_count
        _scan(cache, store, metric, queries, device, radii=np.full(11, 1.0))
        assert device.stats.kernel_launches == before_kernels + 1
        assert metric.pair_count == before_pairs + 11 * len(cache)

    def test_string_payload_batch_scan(self, device):
        words = ["metric", "metrics", "space", "spade", "tree"]
        cache, store = _cache_over(["pad"] * 50 + words, range(50, 55), device)
        metric = EditDistance()
        queries = ["metric", "spice"]
        expected = [_brute_force(cache, store, metric, q, k=3) for q in queries]
        assert _scan(cache, store, metric, queries, device, k=[3, 3]) == expected

    def test_knn_scan_topk_with_ties(self, device):
        # equidistant objects: the top-k must break ties by ascending id
        cache, store = _cache_over(np.tile([1.0, 0.0], (8, 1)), range(8), device)
        got = _scan(cache, store, EuclideanDistance(), [np.zeros(2)], device, k=[3])
        assert got == [[(0, 1.0), (1, 1.0), (2, 1.0)]]

    def test_scan_keeps_ties_at_the_tree_kth_bound(self, device):
        # the tree already filled k=2 slots at distance 1.0: cached objects
        # tied at that bound must survive the offer and win on id
        cache, store = _cache_over(
            np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 0.0]]), range(3), device
        )
        results = BoundedTriples(1, None, k=np.array([2]))
        results.offer([0, 0], [900, 901], [1.0, 1.0])
        cache.range_scan_batch(EuclideanDistance(), store, [np.zeros(2)], results, device)
        assert results.answers() == [[(0, 1.0), (1, 1.0)]]

    def test_empty_cache_offers_nothing(self, device):
        cache, store = _cache_over(np.zeros((4, 2)), [], device)
        before = device.stats.kernel_launches
        assert _scan(cache, store, EuclideanDistance(), [np.zeros(2)], device, k=[3]) == [[]]
        assert device.stats.kernel_launches == before

    def test_tiered_cache_scan_faults_no_block(self, points_2d, l2_metric, monkeypatch):
        index = GTS.build(
            points_2d[:400], l2_metric, node_capacity=8, cache_capacity_bytes=1 << 16,
            tier=TierConfig(memory_budget_bytes=2 * 256, block_bytes=256),
        )
        for i in range(6):
            index.insert(points_2d[400 + i])
        queries = [points_2d[i] for i in range(0, 80, 10)]
        scans: list[tuple[dict, dict]] = []
        real_scan = CacheTable.range_scan_batch

        def recording_scan(cache, *args, **kwargs):
            before = index.pager.stats.as_dict()
            real_scan(cache, *args, **kwargs)
            scans.append((before, index.pager.stats.as_dict()))

        monkeypatch.setattr(CacheTable, "range_scan_batch", recording_scan)
        answers = index.knn_query_batch(queries, 5)
        assert len(scans) == 1
        assert scans[0][0] == scans[0][1]
        # the cached inserts are still found (each query is one of them)
        hits = index.knn_query_batch([points_2d[400 + i] for i in range(6)], 1)
        assert [h[0] for h, in hits] == list(range(400, 406))
        assert answers == [index.knn_query(q, 5) for q in queries]
        index.close()

    def test_gts_query_batch_merges_cache_identically(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, node_capacity=8)
        for i in range(6):
            index.insert(points_2d[i] + 0.01)
        queries = [points_2d[i] for i in range(10)]
        batch = index.knn_query_batch(queries, 5)
        singles = [index.knn_query(q, 5) for q in queries]
        assert batch == singles
        batch_r = index.range_query_batch(queries, 0.5)
        singles_r = [index.range_query(q, 0.5) for q in queries]
        assert batch_r == singles_r
        index.close()

    def test_query_batch_adds_one_cache_scan_kernel(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, node_capacity=8)
        queries = [points_2d[i] for i in range(8)]
        before = index.device.stats.kernel_launches
        index.knn_query_batch(queries, 3)
        without_cache = index.device.stats.kernel_launches - before
        for i in range(4):
            index.insert(points_2d[i] + 1000.0)  # far away: answers unaffected
        before = index.device.stats.kernel_launches
        index.knn_query_batch(queries, 3)
        with_cache = index.device.stats.kernel_launches - before
        # the whole batch's cache merge is exactly one extra cache-scan
        # kernel, not one per query
        assert with_cache == without_cache + 1
        index.close()

    @pytest.mark.parametrize(
        "build",
        [
            lambda pts, metric: GTS.build(
                pts, metric, node_capacity=8, cache_capacity_bytes=1 << 16
            ),
            lambda pts, metric: ShardedGTS.build(
                pts, metric, num_shards=2, node_capacity=8, cache_capacity_bytes=1 << 16
            ),
        ],
        ids=["gts", "sharded-2"],
    )
    def test_cache_and_tombstones_match_linear_scan(self, build, points_2d, l2_metric, rng):
        index = build(points_2d, l2_metric)
        oracle = LinearScan(l2_metric)
        oracle.build(points_2d)
        for i in range(12):
            obj = points_2d[5 * i] + rng.normal(scale=0.05, size=2)
            assert index.insert(obj) == oracle.insert(obj)
        # tombstone indexed objects and drop cached ones
        for victim in (0, 3, 10, 25, 601, 605):
            index.delete(victim)
            oracle.delete(victim)
        assert index.cache_size > 0
        queries = [points_2d[i] for i in (0, 3, 5, 40, 200)]
        for got, want in zip(
            index.range_query_batch(queries, 0.6), oracle.range_query_batch(queries, 0.6)
        ):
            assert [o for o, _ in got] == [o for o, _ in want]
            np.testing.assert_allclose([d for _, d in got], [d for _, d in want])
        live = len(oracle.live_ids())
        for k in (1, 7, live + 50):
            got_k = index.knn_query_batch(queries, k)
            want_k = oracle.knn_query_batch(queries, k)
            for got, want in zip(got_k, want_k):
                assert len(got) == min(k, live)
                assert [o for o, _ in got] == [o for o, _ in want]
                np.testing.assert_allclose([d for _, d in got], [d for _, d in want])
        index.close()


# --------------------------------------------------------------------------
# Update-path bugfixes
# --------------------------------------------------------------------------
class TestOversizedInsert:
    def test_cache_table_rejects_oversized_object(self, device):
        cache = CacheTable(64, device=device)
        store = make_object_store(np.zeros((1, 2)))
        with pytest.raises(UpdateError, match="exceeds the whole cache"):
            cache.ensure_fits(store.stored_nbytes(np.zeros(100)))
        assert len(cache) == 0 and cache.used_bytes(store) == 0

    def test_gts_insert_rejects_oversized_and_stays_stats_neutral(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, cache_capacity_bytes=64)
        before = index.device.stats.copy()
        n_before = index.num_objects
        with pytest.raises(UpdateError):
            index.insert(np.zeros(100))
        assert index.device.stats.sim_time == before.sim_time
        assert index.device.stats.kernel_launches == before.kernel_launches
        assert index.num_objects == n_before
        # the id was not consumed and valid inserts still work
        new_id = index.insert(np.array([1.0, 2.0]))
        assert new_id == len(points_2d)
        index.close()

    def test_sharded_insert_rejects_oversized_and_stays_stats_neutral(self, points_2d, l2_metric):
        index = ShardedGTS.build(points_2d, l2_metric, num_shards=2, cache_capacity_bytes=64)
        before = index.device.stats.copy()
        with pytest.raises(UpdateError):
            index.insert(np.zeros(100))
        assert index.device.stats.sim_time == before.sim_time
        index.close()

    def test_update_with_oversized_replacement_is_atomic(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, cache_capacity_bytes=64)
        before = index.device.stats.copy()
        with pytest.raises(UpdateError):
            index.update(3, np.zeros(100))
        # the old version must survive a rejected replacement, stats-neutrally
        assert index.is_live(3)
        assert index.device.stats.sim_time == before.sim_time
        index.close()

    def test_sharded_update_with_oversized_replacement_is_atomic(self, points_2d, l2_metric):
        index = ShardedGTS.build(points_2d, l2_metric, num_shards=2, cache_capacity_bytes=64)
        with pytest.raises(UpdateError):
            index.update(3, np.zeros(100))
        assert index.is_live(3)
        index.close()


class TestInsertSizing:
    """A list or tuple insert is charged as the row the store holds."""

    @staticmethod
    def _stats(device) -> dict:
        stats = device.stats.as_dict()
        del stats["host_time"]  # wall clock
        return stats

    @pytest.mark.parametrize("convert", [list, tuple], ids=["list", "tuple"])
    def test_gts_list_insert_matches_the_ndarray_insert(self, convert, points_2d, l2_metric):
        rows = [points_2d[i] + 0.25 for i in range(0, 50, 10)]
        runs = []
        for to_obj in (np.asarray, lambda row: convert(row.tolist())):
            index = GTS.build(points_2d, l2_metric, node_capacity=8, cache_capacity_bytes=1 << 12)
            for row in rows:
                index.insert(to_obj(row))
            answers = index.knn_query_batch(rows, 3)
            runs.append((index._cache.used_bytes(index._objects), self._stats(index.device), answers))
            index.close()
        assert runs[0][0] == len(rows) * 16  # five float64 2-d rows
        assert runs[1] == runs[0]

    def test_sharded_list_insert_matches_the_ndarray_insert(self, points_2d, l2_metric):
        rows = [points_2d[i] + 0.25 for i in range(0, 70, 10)]
        runs = []
        for to_obj in (np.asarray, lambda row: row.tolist()):
            index = ShardedGTS.build(
                points_2d, l2_metric, num_shards=2, assignment="size-balanced",
                node_capacity=8, cache_capacity_bytes=1 << 12,
            )
            ids = [index.insert(to_obj(row)) for row in rows]
            index.delete(ids[0])
            runs.append(
                (
                    index.shard_load_bytes,
                    [shard._cache.used_bytes(shard._objects) for shard in index.shards],
                    [self._stats(shard.device) for shard in index.shards],
                )
            )
            index.close()
        assert runs[1] == runs[0]


class TestNoopBatchUpdate:
    def test_gts_noop_batch_update_is_free(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, node_capacity=8)
        before = index.device.stats.copy()
        result = index.batch_update(inserts=(), deletes=())
        # a zero-cost result over the standing tree: no construction ran
        assert result.tree is index.tree
        assert result.sim_time == 0.0 and result.distance_computations == 0
        assert index.rebuild_count == 0
        assert index.forced_rebuild_count == 0
        assert index.device.stats.sim_time == before.sim_time
        assert index.device.stats.kernel_launches == before.kernel_launches
        index.close()

    def test_sharded_noop_batch_update_is_free(self, points_2d, l2_metric):
        index = ShardedGTS.build(points_2d, l2_metric, num_shards=2)
        before = index.device.stats.copy()
        report = index.batch_update(inserts=(), deletes=())
        assert report.per_shard == [] and report.sim_time == 0.0
        assert index.rebuild_count == 0
        assert index.device.stats.sim_time == before.sim_time
        index.close()

    def test_non_noop_batch_update_still_rebuilds(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, node_capacity=8)
        index.batch_update(deletes=[0, 1])
        assert index.forced_rebuild_count == 1
        index.close()


class TestRebuildCounterSplit:
    def test_forced_vs_automatic(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, cache_capacity_bytes=64)
        index.rebuild()
        assert (index.forced_rebuild_count, index.automatic_rebuild_count) == (1, 0)
        index.batch_update(inserts=[np.array([9.0, 9.0])])
        assert index.forced_rebuild_count == 2
        while index.automatic_rebuild_count == 0:
            index.insert(np.array([1.0, 1.0]))
        assert index.rebuild_count == index.forced_rebuild_count + index.automatic_rebuild_count
        assert index.automatic_rebuild_count >= 1
        index.close()

    def test_sharded_aggregates_split_counters(self, points_2d, l2_metric):
        index = ShardedGTS.build(points_2d, l2_metric, num_shards=2, cache_capacity_bytes=64)
        index.shards[0].rebuild()
        while index.automatic_rebuild_count == 0:
            index.insert(np.array([2.0, 2.0]))
        assert index.forced_rebuild_count == 1
        assert index.rebuild_count == 1 + index.automatic_rebuild_count
        index.close()

    def test_persistence_round_trips_split_counters(self, points_2d, l2_metric, tmp_path):
        index = GTS.build(points_2d, l2_metric, cache_capacity_bytes=64)
        index.rebuild()
        while index.automatic_rebuild_count == 0:
            index.insert(np.array([3.0, 3.0]))
        path = index.save(tmp_path / "counters.npz")
        loaded = GTS.load(path)
        assert loaded.automatic_rebuild_count == index.automatic_rebuild_count
        assert loaded.forced_rebuild_count == index.forced_rebuild_count
        assert loaded.rebuild_count == index.rebuild_count
        index.close()
        loaded.close()


# --------------------------------------------------------------------------
# Generation-swap rebuilds
# --------------------------------------------------------------------------
def _mixed_stream(points, rng, length):
    """A deterministic mixed insert/delete/range/knn op stream, batched."""
    ops = []
    next_id = len(points)
    deletable = []
    for _ in range(length):
        kind = rng.choice(["insert", "delete", "range", "knn"], p=[0.45, 0.1, 0.2, 0.25])
        if kind == "insert":
            ops.append(("insert", rng.normal(scale=10.0, size=2)))
            deletable.append(next_id)
            next_id += 1
        elif kind == "delete" and deletable:
            ops.append(("delete", deletable.pop(int(rng.integers(len(deletable))))))
        elif kind == "range":
            ops.append(("range", points[int(rng.integers(len(points)))], 1.0))
        else:
            ops.append(("knn", points[int(rng.integers(len(points)))], 4))
    # split into micro-batches of 7 ops
    return [ops[i : i + 7] for i in range(0, len(ops), 7)]


def _normalize(results):
    out = []
    for r in results:
        if isinstance(r, list):
            out.append([(int(o), float(d)) for o, d in r])
        else:
            out.append(r)
    return out


class TestGenerationSwapEquivalence:
    """Generation-swap answers are byte-identical to stop-the-world rebuilds
    across resident, tiered (cap 0.25) and 2-shard configurations."""

    CONFIGS = ("resident", "tiered", "sharded")

    def _build_pair(self, config, points):
        kwargs = dict(node_capacity=8, cache_capacity_bytes=128, seed=5)
        if config == "resident":
            make = lambda: GTS.build(points, EuclideanDistance(), **kwargs)
        elif config == "tiered":
            from repro.core.construction import objects_nbytes

            budget = max(2048, objects_nbytes(points) // 4)
            tier = TierConfig(memory_budget_bytes=budget, block_bytes=512)
            make = lambda: GTS.build(points, EuclideanDistance(), tier=tier, **kwargs)
        else:
            make = lambda: ShardedGTS.build(
                points, EuclideanDistance(), num_shards=2, **kwargs
            )
        return make(), make()

    @pytest.mark.parametrize("config", CONFIGS)
    def test_streamed_batches_identical_to_blocking(self, config, points_2d):
        points = points_2d[:300]
        blocking, nonblocking = self._build_pair(config, points)
        nonblocking.enable_incremental_maintenance(
            MaintenanceConfig(levels_per_slice=1, hard_overflow_factor=None)
        )
        batches = _mixed_stream(points, np.random.default_rng(42), 140)
        swapped_any = False
        for batch in batches:
            expected = _normalize(blocking.execute_batch(batch))
            got = _normalize(nonblocking.execute_batch(batch))
            assert got == expected
            # advance maintenance between micro-batches, like the service
            report = nonblocking.run_maintenance_slice()
            if report is not None and report.swapped:
                swapped_any = True
        # the stream must actually have exercised the non-blocking rebuild
        assert blocking.automatic_rebuild_count >= 1
        assert swapped_any or nonblocking.maintenance_due
        # drain and re-compare a final query batch
        while nonblocking.maintenance_due:
            if nonblocking.run_maintenance_slice() is None:
                break
        queries = [points[i] for i in range(12)]
        assert _normalize(
            [r for r in nonblocking.knn_query_batch(queries, 6)]
        ) == _normalize([r for r in blocking.knn_query_batch(queries, 6)])
        assert nonblocking.automatic_rebuild_count >= 1
        blocking.close()
        nonblocking.close()

    def test_deletes_during_rebuild_carry_over(self, points_2d, l2_metric):
        points = points_2d[:200]
        index = GTS.build(points, l2_metric, node_capacity=8, cache_capacity_bytes=128)
        index.enable_incremental_maintenance(
            MaintenanceConfig(hard_overflow_factor=None)
        )
        cached_ids = []
        while not index.maintenance_due:
            cached_ids.append(index.insert(points[0] + 0.01))
        # start the rebuild and advance one level, then delete mid-flight:
        # one indexed object and one snapshot-cached object
        index.run_maintenance_slice()
        assert index.maintenance.in_flight
        index.delete(7)
        index.delete(cached_ids[0])
        while index.maintenance_due:
            index.run_maintenance_slice()
        assert index.automatic_rebuild_count == 1
        assert not index.is_live(7) and not index.is_live(cached_ids[0])
        hits = {o for o, _ in index.range_query(points[7], 1e-9)}
        assert 7 not in hits
        # the other snapshot inserts were folded into the tree
        assert index.is_live(cached_ids[1])
        assert index.cache_size == 0
        index.close()

    def test_forced_rebuild_aborts_generation_without_leaks(self, points_2d, l2_metric):
        device = Device(DeviceSpec())
        index = GTS.build(
            points_2d, l2_metric, device=device, cache_capacity_bytes=128
        )
        index.enable_incremental_maintenance(
            MaintenanceConfig(hard_overflow_factor=None)
        )
        while not index.maintenance_due:
            index.insert(np.array([5.0, 5.0]))
        index.run_maintenance_slice()
        assert index.maintenance.in_flight
        index.rebuild()
        assert not index.maintenance.in_flight and not index.maintenance_due
        assert index.forced_rebuild_count == 1
        index.close()
        assert device.used_bytes == 0

    def test_close_with_inflight_generation_frees_everything(self, points_2d, l2_metric):
        device = Device(DeviceSpec())
        index = GTS.build(points_2d, l2_metric, device=device, cache_capacity_bytes=128)
        index.enable_incremental_maintenance(
            MaintenanceConfig(hard_overflow_factor=None)
        )
        while not index.maintenance_due:
            index.insert(np.array([5.0, 5.0]))
        index.run_maintenance_slice()
        index.close()
        assert device.used_bytes == 0

    def test_hard_overflow_valve_finishes_synchronously(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, cache_capacity_bytes=128)
        index.enable_incremental_maintenance(
            MaintenanceConfig(hard_overflow_factor=2.0)
        )
        # never run a slice: once the cache exceeds 2x its budget the next
        # insert must complete the rebuild on its own
        while index.automatic_rebuild_count == 0:
            index.insert(np.array([6.0, 6.0]))
        assert index.cache_size * 16 <= 2 * 128 + 16
        index.close()

    def test_maintenance_slices_attributed_in_stats(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, cache_capacity_bytes=128)
        index.enable_incremental_maintenance(
            MaintenanceConfig(hard_overflow_factor=None)
        )
        while not index.maintenance_due:
            index.insert(np.array([7.0, 7.0]))
        assert index.device.stats.maintenance_seconds == 0.0
        while index.maintenance_due:
            index.run_maintenance_slice()
        assert index.device.stats.maintenance_seconds > 0.0
        assert index.device.stats.maintenance_seconds <= index.device.stats.sim_time
        index.close()


class TestShardedStaggering:
    def test_at_most_one_shard_in_maintenance(self, points_2d, l2_metric):
        index = ShardedGTS.build(
            points_2d, l2_metric, num_shards=3, cache_capacity_bytes=96, seed=2
        )
        index.enable_incremental_maintenance(
            MaintenanceConfig(hard_overflow_factor=None)
        )
        # make every shard maintenance-due
        rng = np.random.default_rng(8)
        while not all(s.maintenance_due for s in index.shards):
            index.insert(rng.normal(scale=10.0, size=2))
        swaps = 0
        while index.maintenance_due:
            report = index.run_maintenance_slice()
            assert report is not None
            in_flight = sum(
                1 for s in index.shards if s.maintenance is not None and s.maintenance.in_flight
            )
            assert in_flight <= 1
            swaps += int(report.swapped)
        assert swaps >= 3
        index.close()


# --------------------------------------------------------------------------
# Serving-layer hook
# --------------------------------------------------------------------------
class TestServiceMaintenanceHook:
    def _workload(self, points, num_indexed, seed=13):
        spec = WorkloadSpec(
            num_clients=4,
            rate_per_client=150_000.0,
            duration=2e-3,
            mix=dict(UPDATE_HEAVY_MIX),
            radius=0.8,
            seed=seed,
        )
        return generate_workload(points, num_indexed, spec)

    def test_served_answers_match_sequential_replay(self, points_2d, l2_metric):
        num_indexed = 500
        workload = self._workload(points_2d, num_indexed)
        oracle = GTS.build(points_2d[:num_indexed], l2_metric, cache_capacity_bytes=256, seed=3)
        expected = sequential_replay(oracle, workload.requests)
        oracle.close()

        index = GTS.build(points_2d[:num_indexed], l2_metric, cache_capacity_bytes=256, seed=3)
        service = GTSService(index, maintenance=MaintenanceHook())
        responses = service.serve(workload.requests)
        assert [r.result for r in responses] == expected
        assert service.maintenance_records, "no maintenance slice ever ran"
        report = summarize(responses, service.batches, service.maintenance_records)
        assert report.num_maintenance_slices == len(service.maintenance_records)
        assert report.maintenance_time > 0
        assert report.rebuilds_completed == index.automatic_rebuild_count >= 1
        assert "maintenance" in report.to_text()
        index.close()

    def test_hook_auto_enables_maintenance(self, points_2d, l2_metric):
        index = GTS.build(points_2d[:300], l2_metric)
        assert not index.maintenance_enabled
        GTSService(index, maintenance=MaintenanceHook())
        assert index.maintenance_enabled
        index.close()

    def test_deferral_under_load(self, points_2d, l2_metric):
        # a hook that may never run a slice while requests are pending only
        # fires in idle gaps / the end-of-stream drain
        num_indexed = 400
        workload = self._workload(points_2d, num_indexed, seed=21)
        index = GTS.build(points_2d[:num_indexed], l2_metric, cache_capacity_bytes=256, seed=3)
        hook = MaintenanceHook(defer_queue_threshold=1, max_deferrals=10_000)
        service = GTSService(index, maintenance=hook)
        service.serve(workload.requests)
        assert all(record.idle for record in service.maintenance_records)
        index.close()

    def test_sharded_service_with_maintenance(self, points_2d, l2_metric):
        num_indexed = 500
        workload = self._workload(points_2d, num_indexed, seed=5)
        oracle = GTS.build(points_2d[:num_indexed], l2_metric, cache_capacity_bytes=256, seed=3)
        expected = sequential_replay(oracle, workload.requests)
        oracle.close()
        index = ShardedGTS.build(
            points_2d[:num_indexed], l2_metric, num_shards=2, cache_capacity_bytes=256, seed=3
        )
        service = GTSService(index, maintenance=MaintenanceHook())
        responses = service.serve(workload.requests)
        assert [r.result for r in responses] == expected
        index.close()
