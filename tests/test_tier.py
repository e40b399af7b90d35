"""Tests for the out-of-core tiered memory subsystem (repro.tier).

The load-bearing property: a tiered GTS — at any device-pool budget —
returns **byte-identical** answers and id assignments to a fully-resident GTS across mixed
query/insert/delete batches.  Tiering is a performance trade, never a
correctness one.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro import GTS, AngularDistance, EditDistance, EuclideanDistance, ShardedGTS
from repro.exceptions import MemoryLeakError, TierError
from repro.gpusim import Device, DeviceSpec
from repro.core.construction import objects_nbytes
from repro.core.objectstore import make_object_store
from repro.tier import BlockPager, TierConfig, TieredObjectStore
from repro.tier.experiment import experiment_memory_tiering


def make_store(n=64, dim=2, block_objects=4, seed=0):
    rng = np.random.default_rng(seed)
    objects = make_object_store([row for row in rng.normal(size=(n, dim))])
    return TieredObjectStore(objects, block_bytes=objects.row_nbytes * block_objects)


# ---------------------------------------------------------------------------
# TierConfig
# ---------------------------------------------------------------------------
class TestTierConfig:
    def test_round_trips_through_dict(self):
        config = TierConfig(memory_budget_bytes=4096, block_bytes=512, fault_latency=2e-5)
        assert TierConfig.from_dict(config.as_dict()) == config

    def test_from_dict_ignores_legacy_keys(self):
        legacy = {"memory_budget_bytes": 4096, "block_bytes": 512,
                  "eviction": "pinned-lru", "prefetch": True}
        assert TierConfig.from_dict(legacy) == TierConfig(4096, block_bytes=512)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("memory_budget_bytes", float("nan"), "memory budget"),
            ("memory_budget_bytes", float("inf"), "memory budget"),
            ("memory_budget_bytes", -4096, "memory budget"),
            ("memory_budget_bytes", 4096.5, "memory budget"),
            ("memory_budget_bytes", "4096", "memory budget"),
            ("block_bytes", float("nan"), "block size"),
            ("block_bytes", float("inf"), "block size"),
            ("block_bytes", -1, "block size"),
            ("block_bytes", 256.25, "block size"),
            ("fault_latency", float("nan"), "fault latency"),
            ("fault_latency", float("inf"), "fault latency"),
            ("fault_latency", -1e-6, "fault latency"),
        ],
    )
    def test_rejects_invalid_values(self, field, value, message):
        kwargs = {"memory_budget_bytes": 4096, "block_bytes": 512, field: value}
        with pytest.raises(TierError, match=message):
            TierConfig(**kwargs)

    def test_integral_float_sizes_are_normalised_to_int(self):
        config = TierConfig(memory_budget_bytes=4096.0, block_bytes=512.0)
        assert config == TierConfig(4096, block_bytes=512)
        assert isinstance(config.memory_budget_bytes, int)
        assert isinstance(config.block_bytes, int)

    def test_rejects_budget_smaller_than_a_block(self):
        with pytest.raises(TierError):
            TierConfig(memory_budget_bytes=100, block_bytes=512)

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(TierError):
            TierConfig(memory_budget_bytes=0)
        with pytest.raises(TierError):
            TierConfig(memory_budget_bytes=1024, block_bytes=0)


# ---------------------------------------------------------------------------
# TieredObjectStore
# ---------------------------------------------------------------------------
class TestTieredObjectStore:
    def test_blocks_cover_the_id_space_exactly_once(self):
        store = make_store(n=61, block_objects=4)
        seen = []
        for bid in range(store.num_blocks):
            seen.extend(store.block_object_ids(bid))
        assert seen == list(range(61))

    def test_block_of_matches_block_ranges(self):
        store = make_store(n=61, block_objects=4)
        for bid in range(store.num_blocks):
            for oid in store.block_object_ids(bid):
                assert store.block_of(oid) == bid

    def test_block_bytes_sum_to_store_payload(self):
        store = make_store(n=61, block_objects=4)
        total = sum(store.block_nbytes(b) for b in range(store.num_blocks))
        assert total == objects_nbytes(store.raw)

    def test_append_extends_tail_and_recomputes_its_size(self):
        store = make_store(n=8, block_objects=4)
        before = store.block_nbytes(store.num_blocks - 1)
        tail, rewrote = store.append(np.zeros(2))
        assert tail == store.num_blocks - 1 and not rewrote
        assert store.block_nbytes(tail) > 0
        assert len(store) == 9
        assert store.block_nbytes(0) >= before  # full blocks unchanged

    def test_blocks_for_deduplicates_and_sorts(self):
        store = make_store(n=32, block_objects=4)
        blocks = store.blocks_for([0, 1, 2, 3, 17, 16, 3])
        assert blocks.tolist() == [0, 4]

    def test_rejects_out_of_range_ids(self):
        store = make_store(n=8)
        with pytest.raises(TierError):
            store.block_of(8)
        with pytest.raises(TierError):
            store.block_object_ids(99)

    def test_set_layout_regroups_blocks_not_rows(self):
        store = make_store(n=10, block_objects=4)
        rows = [row.copy() for row in store.raw]
        order = np.array([9, 2, 5, 0, 7, 1, 8, 3, 6, 4])
        store.set_layout(order)
        assert store.block_object_ids(0).tolist() == [9, 2, 5, 0]
        assert store.block_object_ids(2).tolist() == [6, 4]
        assert store.block_of(7) == 1
        assert store.blocks_for([4, 9, 2]).tolist() == [0, 2]
        np.testing.assert_array_equal(store.slot_of[order], np.arange(10))
        for oid, row in enumerate(rows):
            np.testing.assert_array_equal(store.raw[oid], row)

    def test_set_layout_rejects_non_permutations(self):
        store = make_store(n=6, block_objects=4)
        for bad in ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4, 6]):
            with pytest.raises(TierError):
                store.set_layout(bad)

    def test_append_after_a_layout_takes_the_next_tail_slot(self):
        store = make_store(n=8, block_objects=4)
        store.set_layout(np.arange(8)[::-1])
        for expected_id in range(8, 20):
            tail, _ = store.append(np.zeros(2))
            assert store.slot_of[expected_id] == expected_id
            assert tail == store.num_blocks - 1 == store.block_of(expected_id)
        assert store.block_object_ids(0).tolist() == [7, 6, 5, 4]


    def test_a_pinned_prefix_belongs_to_no_block(self):
        store = make_store(n=10, block_objects=4)
        order = np.array([9, 2, 5, 0, 7, 1, 8, 3, 6, 4])
        store.set_layout(order, pinned=3)
        assert store.pinned_ids.tolist() == [9, 2, 5]
        assert store.num_blocks == 2
        assert store.block_object_ids(0).tolist() == [0, 7, 1, 8]
        assert store.block_object_ids(1).tolist() == [3, 6, 4]
        assert store.blocks_of([9, 0, 4, 2]).tolist() == [-1, 0, 1, -1]
        assert store.blocks_for([9, 2, 6]).tolist() == [1]
        assert store.block_of(6) == 1
        with pytest.raises(TierError, match="pinned"):
            store.block_of(5)
        with pytest.raises(TierError, match="pinned prefix"):
            store.set_layout(order, pinned=11)
        tail, _ = store.append(np.zeros(2))  # the tail block grows
        assert tail == 1 and store.block_object_ids(1).tolist() == [3, 6, 4, 10]
        store.append(np.zeros(2))
        assert store.num_blocks == 3 and store.block_of(11) == 2

    def test_fault_skips_pinned_ids_with_per_object_counters(self, guarded_device):
        from repro.tier import PagedObjects

        store = make_store(n=32, block_objects=4)
        store.set_layout(np.arange(32), pinned=6)  # block b holds 6 + 4b ..
        config = TierConfig(
            memory_budget_bytes=4 * store.block_nbytes(0), block_bytes=store.block_bytes
        )
        pager = BlockPager(guarded_device, store, config)
        port = PagedObjects(store, pager)
        # reads of block 0 on either side of a pinned id are one access
        # each, exactly as with the pinned id left out
        port.fault([0, 6, 1, 7, 2, 10, 3, 11, 12])
        assert (pager.stats.hits, pager.stats.misses) == (3, 2)
        port.fault([4, 5])  # pinned only: no access
        port.fault(np.array([], dtype=np.int64))
        assert pager.stats.accesses == 5 and pager.stats.transactions == 1
        for bad in ([3, -1], [32]):
            with pytest.raises(TierError, match="outside the store"):
                port.fault(bad)
        pager.release()


# ---------------------------------------------------------------------------
# Eviction order (LRU)
# ---------------------------------------------------------------------------
class TestEvictionPolicies:
    def test_lru_evicts_least_recently_used(self, guarded_device):
        store = make_store(n=32, block_objects=4)
        config = TierConfig(
            memory_budget_bytes=3 * store.block_nbytes(0), block_bytes=store.block_bytes
        )
        pager = BlockPager(guarded_device, store, config)
        for bid in (1, 2, 3):
            pager.access(bid)
        pager.access(1)  # a hit makes block 1 the most recently used
        pager.access(4)  # evicts block 2, the least recently used
        assert pager.resident_blocks == [1, 3, 4]
        pager.access(5)  # then block 3
        assert pager.resident_blocks == [1, 4, 5]
        assert pager.stats.evictions == 2
        pager.release()


# ---------------------------------------------------------------------------
# BlockPager
# ---------------------------------------------------------------------------
class TestBlockPager:
    def make_pager(self, device, budget_blocks=2, n=32):
        store = make_store(n=n, block_objects=4)
        block = store.block_nbytes(0)
        config = TierConfig(
            memory_budget_bytes=block * budget_blocks, block_bytes=store.block_bytes
        )
        return store, BlockPager(device, store, config)

    def test_miss_then_hit_then_eviction(self, guarded_device):
        store, pager = self.make_pager(guarded_device, budget_blocks=2)
        assert pager.access(0) is False  # cold miss
        assert pager.access(0) is True
        pager.access(1)
        pager.access(2)  # evicts block 0 (LRU)
        assert not pager.is_resident(0)
        assert pager.stats.misses == 3 and pager.stats.hits == 1
        assert pager.stats.evictions == 1
        pager.release()

    def test_budget_is_never_exceeded(self, guarded_device):
        store, pager = self.make_pager(guarded_device, budget_blocks=3)
        rng = np.random.default_rng(5)
        for oid in rng.integers(0, len(store), size=200):
            pager.access(store.block_of(int(oid)))
            assert pager.resident_bytes <= pager.budget_bytes
            assert guarded_device.pool_used_bytes("pager") == pager.resident_bytes
        pager.release()

    def test_faults_charge_attributed_h2d_time(self, guarded_device):
        store, pager = self.make_pager(guarded_device, budget_blocks=2)
        pager.access(0)
        pager.access(1)
        stats = guarded_device.stats
        assert stats.transfer_seconds["pager-h2d"] == pytest.approx(
            pager.stats.h2d_seconds
        )
        # two single-block gathers → two transactions, two latency charges
        # on top of the bytes
        assert pager.stats.transactions == 2
        expected = 2 * pager.config.fault_latency + (
            pager.stats.bytes_h2d / guarded_device.spec.transfer_bandwidth
        )
        assert pager.stats.h2d_seconds == pytest.approx(expected)
        pager.release()

    def test_invalidate_drops_without_writeback(self, guarded_device):
        store, pager = self.make_pager(guarded_device, budget_blocks=2)
        pager.access(0)
        pager.invalidate(0)
        assert pager.stats.invalidations == 1
        assert not pager.is_resident(0) and pager.resident_bytes == 0
        assert guarded_device.pool_used_bytes("pager") == 0
        assert guarded_device.stats.bytes_to_host == 0
        pager.release()

    def test_block_larger_than_budget_raises(self, guarded_device):
        store = make_store(n=32, block_objects=8)
        config = TierConfig(
            memory_budget_bytes=store.block_nbytes(0),
            block_bytes=store.block_bytes,
        )
        pager = BlockPager(guarded_device, store, config)
        pager.budget_bytes = store.block_nbytes(0) - 1
        with pytest.raises(TierError):
            pager.access(0)
        pager.release()

    def test_release_frees_every_allocation(self, guarded_device):
        store, pager = self.make_pager(guarded_device, budget_blocks=4)
        for bid in range(4):
            pager.access(bid)
        pager.release()
        assert pager.resident_bytes == 0
        # guarded_device teardown asserts no leaks

    def test_a_gathers_misses_share_one_transaction(self, guarded_device):
        store, pager = self.make_pager(guarded_device, budget_blocks=3)
        # block 0 again is a hit while it is still resident
        assert pager.fault_runs([0, 1, 0, 2], [2, 1, 1, 3]) == 3
        assert pager.stats.misses == 3 and pager.stats.hits == 4
        assert pager.stats.transactions == 1
        assert pager.stats.bytes_h2d == sum(store.block_nbytes(b) for b in range(3))
        expected = pager.config.fault_latency + (
            pager.stats.bytes_h2d / guarded_device.spec.transfer_bandwidth
        )
        assert pager.stats.h2d_seconds == pytest.approx(expected)
        assert guarded_device.stats.transfer_seconds["pager-h2d"] == pytest.approx(expected)
        pager.release()

    def test_a_wave_closes_before_its_own_block_is_evicted(self, guarded_device):
        store, pager = self.make_pager(guarded_device, budget_blocks=2)
        # 0 and 1 fill the pool; block 2's victim is 0, a block of the
        # pending wave, so {0, 1} is charged first; block 3 evicts the
        # already charged 1 and joins 2 in the second wave
        assert pager.fault_runs([0, 1, 2, 3], [1, 1, 1, 1]) == 4
        assert pager.stats.evictions == 2
        assert pager.stats.transactions == 2
        assert pager.resident_blocks == [2, 3]
        pager.release()

    def test_device_oom_mid_gather_charges_the_staged_wave(self, guarded_device):
        from repro.exceptions import DeviceMemoryError

        store, pager = self.make_pager(guarded_device, budget_blocks=4)
        block = store.block_nbytes(0)
        # other pools leave room for two blocks only
        filler = guarded_device.allocate(
            guarded_device.available_bytes - 2 * block, pool="workspace"
        )
        with pytest.raises(DeviceMemoryError):
            pager.fault_runs([0, 1, 2], [1, 1, 1])
        assert pager.resident_blocks == [0, 1]
        assert pager.stats.misses == 3
        assert pager.stats.transactions == 1
        assert pager.stats.bytes_h2d == 2 * block
        assert guarded_device.stats.transfer_seconds["pager-h2d"] == pytest.approx(
            pager.stats.h2d_seconds
        )
        guarded_device.free(filler)
        pager.release()

    # ids name the eviction order under test (the pager's only one: LRU)
    @pytest.mark.parametrize("budget_blocks", [2, 3, 4], ids=lambda b: f"lru-{b}")
    def test_waves_match_one_access_per_object(self, budget_blocks):
        """Waves change latency charges only, never what the pager holds."""
        rng = np.random.default_rng(100 * budget_blocks + 3)
        counters = ("hits", "misses", "evictions", "bytes_h2d")
        for _ in range(20):
            wave_device, reference_device = Device(DeviceSpec()), Device(DeviceSpec())
            store, waves = self.make_pager(wave_device, budget_blocks)
            _, reference = self.make_pager(reference_device, budget_blocks)
            for _ in range(4):  # several gathers on the same pool
                blocks = rng.integers(0, store.num_blocks, size=rng.integers(1, 13)).tolist()
                counts = rng.integers(1, 4, size=len(blocks)).tolist()
                before = (waves.stats.transactions, waves.stats.bytes_h2d)
                waves.fault_runs(blocks, counts)
                # a wave's blocks are resident together: it fits the budget
                charged = waves.stats.transactions - before[0]
                assert charged * waves.budget_bytes >= waves.stats.bytes_h2d - before[1]
                for block_id, count in zip(blocks, counts):
                    for _ in range(count):
                        reference.access(block_id)
                for name in counters:
                    assert getattr(waves.stats, name) == getattr(reference.stats, name), name
                assert waves.resident_blocks == reference.resident_blocks
            assert reference.stats.transactions == reference.stats.misses
            assert waves.stats.transactions <= waves.stats.misses
            assert waves.stats.h2d_seconds == pytest.approx(
                waves.stats.transactions * waves.config.fault_latency
                + waves.stats.bytes_h2d / wave_device.spec.transfer_bandwidth
            )
            assert wave_device.stats.peak_memory_bytes == reference_device.stats.peak_memory_bytes
            waves.release()
            reference.release()
            wave_device.assert_no_leaks()


# ---------------------------------------------------------------------------
# Device leak guard + pool accounting
# ---------------------------------------------------------------------------
class TestLeakGuardAndPools:
    def test_assert_no_leaks_names_the_leak(self, device):
        device.allocate(512, "forgotten", pool="pager")
        with pytest.raises(MemoryLeakError, match="forgotten"):
            device.assert_no_leaks()

    def test_leak_guard_scopes_to_the_block(self, device):
        device.allocate(256, "pre-existing")  # outside the guard: ignored
        with device.leak_guard():
            alloc = device.allocate(128, "scoped")
            device.free(alloc)
        with pytest.raises(MemoryLeakError):
            with device.leak_guard():
                device.allocate(128, "leaked")

    def test_pool_peaks_are_tracked_independently(self, device):
        a = device.allocate(1000, pool="tree")
        b = device.allocate(600, pool="pager")
        device.free(b)
        device.allocate(200, pool="pager")
        peaks = device.stats.pool_peak_bytes
        assert peaks["tree"] == 1000
        assert peaks["pager"] == 600
        assert device.stats.peak_memory_bytes == 1600
        assert device.pool_used_bytes("pager") == 200
        device.free(a)

    def test_reset_stats_reseeds_pool_peaks_from_live_usage(self, device):
        device.allocate(300, pool="tree")
        b = device.allocate(700, pool="pager")
        device.free(b)
        device.reset_stats()
        assert device.stats.pool_peak_bytes == {"tree": 300}

    def test_stats_dicts_merge_delta_and_scale(self):
        from repro.gpusim import ExecutionStats

        a = ExecutionStats(
            pool_peak_bytes={"tree": 10, "pager": 5}, transfer_seconds={"pager-h2d": 1.0}
        )
        b = ExecutionStats(
            pool_peak_bytes={"pager": 8}, transfer_seconds={"pager-h2d": 0.5, "x": 2.0}
        )
        merged = a.merge(b)
        assert merged.pool_peak_bytes == {"tree": 10, "pager": 8}
        assert merged.transfer_seconds == {"pager-h2d": 1.5, "x": 2.0}
        delta = merged.delta_since(a)
        assert delta.transfer_seconds["pager-h2d"] == pytest.approx(0.5)
        half = merged.scale(0.5)
        assert half.transfer_seconds["pager-h2d"] == pytest.approx(0.75)
        assert half.pool_peak_bytes == merged.pool_peak_bytes
        copied = merged.copy()
        copied.transfer_seconds["pager-h2d"] = 99.0
        assert merged.transfer_seconds["pager-h2d"] == 1.5


# ---------------------------------------------------------------------------
# Tiered GTS: answers identical to the fully-resident index
# ---------------------------------------------------------------------------
def mixed_batches(points, holdout, num_queries=12):
    """A deterministic mixed workload: queries, inserts, deletes, queries."""
    return [
        [("knn", points[i], 5) for i in range(num_queries)]
        + [("range", points[i], 0.6) for i in range(num_queries)],
        [("insert", holdout[0]), ("knn", holdout[0], 4), ("insert", holdout[1])],
        [("delete", 3), ("range", points[1], 0.8), ("delete", 10), ("knn", points[2], 6)],
        [("insert", holdout[2]), ("delete", len(points)), ("range", holdout[1], 0.7)],
    ]


class TestTieredGTS:
    CAPS = (0.5, 0.25, 0.1)

    def build_pair(self, objects, metric, tier, node_capacity=8, seed=11):
        resident = GTS.build(objects, metric, node_capacity=node_capacity, seed=seed)
        tiered = GTS.build(
            objects, metric, node_capacity=node_capacity, seed=seed, tier=tier
        )
        assert tiered.tiered and not resident.tiered
        return resident, tiered

    # ids name the eviction order under test (the pager's only one: LRU)
    @pytest.mark.parametrize("cap", CAPS, ids=lambda cap: f"{cap}-lru")
    def test_mixed_batches_identical_at_every_cap(self, points_2d, cap):
        points, holdout = points_2d[:500], points_2d[500:]
        nbytes = objects_nbytes(points)
        tier = TierConfig(memory_budget_bytes=max(256, int(nbytes * cap)), block_bytes=256)
        resident, tiered = self.build_pair(points, EuclideanDistance(), tier)
        for batch in mixed_batches(points, holdout):
            expected = resident.execute_batch(batch)
            got = tiered.execute_batch(batch)
            assert got == expected  # answers AND assigned ids, byte-identical
        assert tiered.num_objects == resident.num_objects
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_lru_pager_counters_match_recorded_values(self, monkeypatch, points_2d):
        """Lock the pager's LRU order: the counters and the resident set of
        one fixed tiered mixed workload (build excluded).

        First recorded when eviction was a pluggable ``LRUPolicy``:
        ``(5903, 441, 434)``, 70 transactions, 112,752 bytes.  Re-recorded
        when leaf verification began dropping candidates by the table
        list's ``obj_dis`` before faulting them, and the kNN descent began
        re-testing children under their pivots' bound: ``(1795, 151, 144)``,
        27 transactions, 38,512 bytes, resident ``[0, 17, 22, 27, 28, 29,
        30, 31]``.  Re-recorded when the pivots became the store's pinned
        prefix: pivot kernels page nothing and block 0 now starts after the
        pivots, so every count fell; the values are those of an independent
        LRU replay of the workload's fault lists (:class:`PagerTrace`).
        """
        points, holdout = points_2d[:500], points_2d[500:]
        tier = TierConfig(memory_budget_bytes=objects_nbytes(points) // 4, block_bytes=256)
        trace = PagerTrace(monkeypatch)
        index = GTS.build(points, EuclideanDistance(), node_capacity=8, seed=11, tier=tier)
        assert index.pager.resident_blocks == []  # the install staged no block
        trace.events.clear()
        index.pager.stats.reset()
        for batch in mixed_batches(points, holdout):
            index.execute_batch(batch)
        stats = index.pager.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1611, 143, 136)
        assert (stats.transactions, stats.bytes_h2d) == (24, 36576)
        assert index.pager.resident_blocks == [21, 22, 26, 27, 28, 29, 30]
        trace.assert_matches(index.pager)
        index.close()
        index.device.assert_no_leaks()

    def test_budget_below_largest_real_block_fails_at_build(self, word_list, edit_metric):
        # blocks are sized by the *average* payload, so variable-length data
        # can produce a block above block_bytes; that must be a clear build-
        # time error, never a TierError mid-query
        with pytest.raises(TierError, match="largest object block"):
            GTS.build(
                word_list, edit_metric, node_capacity=6,
                tier=TierConfig(memory_budget_bytes=40, block_bytes=40),
            )

    def test_string_dataset_pages_identically(self, word_list, edit_metric):
        nbytes = objects_nbytes(word_list)
        tier = TierConfig(memory_budget_bytes=max(64, nbytes // 5), block_bytes=64)
        resident, tiered = self.build_pair(word_list, edit_metric, tier, node_capacity=6)
        queries = word_list[:8]
        assert tiered.knn_query_batch(queries, 4) == resident.knn_query_batch(queries, 4)
        assert tiered.range_query_batch(queries, 2.0) == resident.range_query_batch(queries, 2.0)
        resident.close()
        tiered.close()

    def test_tight_cap_attributes_pager_traffic(self, points_2d):
        points = points_2d[:500]
        nbytes = objects_nbytes(points)
        tier = TierConfig(memory_budget_bytes=nbytes // 10, block_bytes=256)
        index = GTS.build(points, EuclideanDistance(), node_capacity=8, seed=11, tier=tier)
        index.pager.stats.reset()
        before = index.device.snapshot()
        index.knn_query_batch([points[i] for i in range(12)], 5)
        delta = index.device.stats.delta_since(before)
        assert index.pager.stats.misses > 0
        assert delta.transfer_seconds.get("pager-h2d", 0.0) > 0
        assert delta.transfer_seconds.get("results-d2h", 0.0) > 0
        peaks = index.device.stats.pool_peak_bytes
        assert peaks["pager"] <= tier.memory_budget_bytes
        assert peaks["tree"] > 0
        index.close()

    def test_batch_update_and_rebuild_stay_identical(self, points_2d, rng):
        points = points_2d[:450]
        tier = TierConfig(memory_budget_bytes=2048, block_bytes=256)
        resident, tiered = self.build_pair(points, EuclideanDistance(), tier)
        inserts = [rng.normal(size=2) for _ in range(20)]
        resident.batch_update(inserts=inserts, deletes=[1, 5, 9])
        tiered.batch_update(inserts=inserts, deletes=[1, 5, 9])
        resident.rebuild()
        tiered.rebuild()
        queries = [points[i] for i in range(10)]
        assert tiered.knn_query_batch(queries, 6) == resident.knn_query_batch(queries, 6)
        assert tiered.range_query_batch(queries, 0.7) == resident.range_query_batch(queries, 0.7)
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_get_object_reads_host_side_without_faulting(self, points_2d):
        points = points_2d[:300]
        tier = TierConfig(memory_budget_bytes=1024, block_bytes=256)
        index = GTS.build(points, EuclideanDistance(), node_capacity=8, tier=tier)
        hits, misses = index.pager.stats.hits, index.pager.stats.misses
        np.testing.assert_array_equal(index.get_object(5), points[5])
        assert (index.pager.stats.hits, index.pager.stats.misses) == (hits, misses)
        index.close()

    def test_close_releases_pool_and_tree(self, points_2d):
        device = Device(DeviceSpec())
        tier = TierConfig(memory_budget_bytes=2048, block_bytes=256)
        index = GTS.build(
            points_2d[:300], EuclideanDistance(), node_capacity=8, device=device, tier=tier
        )
        index.knn_query(points_2d[0], 5)
        assert device.pool_used_bytes("pager") > 0
        assert pinned_tables(index)
        index.close()
        device.assert_no_leaks()

    def test_persistence_round_trips_tier_config(self, points_2d, tmp_path):
        points = points_2d[:300]
        tier = TierConfig(memory_budget_bytes=2048, block_bytes=256, fault_latency=2e-5)
        index = GTS.build(points, EuclideanDistance(), node_capacity=8, seed=5, tier=tier)
        queries = [points[i] for i in range(8)]
        expected = index.knn_query_batch(queries, 5)
        path = index.save(tmp_path / "tiered.npz")
        loaded = GTS.load(path)
        assert loaded.tier_config == tier
        assert loaded.tiered and loaded.pager is not None
        assert loaded.knn_query_batch(queries, 5) == expected
        index.close()
        loaded.close()

    def test_archives_with_legacy_tier_keys_still_load(self, points_2d, tmp_path):
        import json

        points = points_2d[:300]
        tier = TierConfig(memory_budget_bytes=2048, block_bytes=256)
        index = GTS.build(points, EuclideanDistance(), node_capacity=8, seed=5, tier=tier)
        queries = [points[i] for i in range(8)]
        path = index.save(tmp_path / "current.npz")
        # an archive written when the tier config still carried an eviction
        # policy name and a prefetch flag
        with np.load(path, allow_pickle=True) as archive:
            arrays = dict(archive)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["tier"].update(eviction="pinned-lru", prefetch=True)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        legacy_path = tmp_path / "legacy.npz"
        np.savez(legacy_path, **arrays)
        loaded, current = GTS.load(legacy_path), GTS.load(path)
        assert loaded.tier_config == tier
        answers = [
            (copy.knn_query_batch(queries, 5), copy.range_query_batch(queries, 0.6))
            for copy in (index, current, loaded)
        ]
        assert answers[2] == answers[1] == answers[0]
        assert loaded.pager.stats.as_dict() == current.pager.stats.as_dict()
        for copy in (index, current, loaded):
            copy.close()

    def test_loading_never_faults_device_blocks(self, points_2d, tmp_path):
        points = points_2d[:300]
        tier = TierConfig(memory_budget_bytes=1024, block_bytes=256)
        index = GTS.build(points, EuclideanDistance(), node_capacity=8, tier=tier)
        index.insert(np.array([0.5, 0.5]))  # populate the cache table
        path = index.save(tmp_path / "cached.npz")
        loaded = GTS.load(path)
        # serialisation and cache repopulation are host-side reads: a fresh
        # load must start with a cold, untouched pager
        assert loaded.pager.stats.misses == 0 and loaded.pager.stats.hits == 0
        assert loaded.pager.resident_bytes == 0
        assert loaded.cache_size == 1
        index.close()
        loaded.close()

    def test_resident_archives_still_load_resident(self, points_2d, tmp_path):
        index = GTS.build(points_2d[:300], EuclideanDistance(), node_capacity=8)
        path = index.save(tmp_path / "resident.npz")
        loaded = GTS.load(path)
        assert loaded.tier_config is None and loaded.pager is None
        index.close()
        loaded.close()


# ---------------------------------------------------------------------------
# Leaf-clustered block layout
# ---------------------------------------------------------------------------
def distinct_pivots(tree):
    pivots = tree.pivot[tree.pivot >= 0]
    _, first = np.unique(pivots, return_index=True)
    return pivots[np.sort(first)]


def assert_leaf_clustered(index):
    """The live store layout follows the live tree (DESIGN.md §7)."""
    store, tree = index.pager.store, index.tree
    per_block = store.objects_per_block
    pivots = distinct_pivots(tree)
    # pivots occupy the leading slots, in node-list order: the pinned
    # prefix, in no block; block 0 starts right after it
    np.testing.assert_array_equal(store.slot_of[pivots], np.arange(len(pivots)))
    assert store.pinned == len(pivots)
    assert len(store.blocks_for(pivots)) == 0
    assert set(store.blocks_of(pivots).tolist()) == {-1}
    np.testing.assert_array_equal(
        store.slot_of[store.block_object_ids(0)],
        np.arange(len(pivots), len(pivots) + len(store.block_object_ids(0))),
    )
    is_pivot = np.zeros(len(store), dtype=bool)
    is_pivot[pivots] = True
    dead = np.zeros(len(store), dtype=bool)
    dead[list(index._tombstones)] = True
    for leaf in tree.leaves():
        ids = tree.node_objects(int(leaf))
        ids = ids[~is_pivot[ids] & ~dead[ids]]
        if len(ids) == 0:
            continue
        blocks = np.unique(store.blocks_of(ids))
        assert blocks[-1] - blocks[0] + 1 == len(blocks)  # consecutive
        assert len(blocks) <= -(-int(tree.size[leaf]) // per_block) + 1
    # ids the tree does not hold trail the table list, ascending
    held = np.zeros(len(store), dtype=bool)
    held[tree.obj_ids] = True
    outside = np.flatnonzero(~held)
    np.testing.assert_array_equal(
        store.slot_of[outside], np.arange(len(store) - len(outside), len(store))
    )


class TestLeafClusteredLayout:
    TIER = TierConfig(memory_budget_bytes=2048, block_bytes=256)

    def build_pair(self, points, **kwargs):
        options = dict(node_capacity=8, seed=11, **kwargs)
        resident = GTS.build(points, EuclideanDistance(), **options)
        tiered = GTS.build(points, EuclideanDistance(), tier=self.TIER, **options)
        return resident, tiered

    @staticmethod
    def assert_same_answers(resident, tiered, queries):
        assert tiered.knn_query_batch(queries, 6) == resident.knn_query_batch(queries, 6)
        assert tiered.range_query_batch(queries, 0.7) == resident.range_query_batch(queries, 0.7)

    def test_build_installs_the_tree_layout(self, points_2d):
        resident, tiered = self.build_pair(points_2d[:500])
        assert_leaf_clustered(tiered)
        store = tiered.pager.store
        assert not np.array_equal(store.slot_of, np.arange(len(store)))
        # the install staged the pinned pivot rows and no block
        assert tiered.pager.resident_blocks == []
        assert_pinned_current(tiered)
        self.assert_same_answers(resident, tiered, [points_2d[i] for i in range(10)])
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_layout_follows_inserts_and_a_forced_rebuild(self, points_2d):
        points, holdout = points_2d[:450], points_2d[450:]
        resident, tiered = self.build_pair(points, cache_capacity_bytes=4096)
        queries = [points[i] for i in range(10)] + [holdout[i] for i in range(5)]
        for obj in holdout[:30]:
            assert tiered.insert(obj) == resident.insert(obj)
        tiered.delete(4)
        resident.delete(4)
        assert tiered.cache_size == 30  # no automatic rebuild yet
        assert_leaf_clustered(tiered)  # appends took the tail slots
        self.assert_same_answers(resident, tiered, queries)
        tiered.rebuild()
        resident.rebuild()
        assert_leaf_clustered(tiered)
        self.assert_same_answers(resident, tiered, queries)
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_layout_follows_a_generation_swap(self, points_2d):
        points, holdout = points_2d[:450], points_2d[450:]
        resident, tiered = self.build_pair(points, cache_capacity_bytes=128)
        for index in (resident, tiered):
            index.enable_incremental_maintenance()
        queries = [points[i] for i in range(10)] + [holdout[i] for i in range(5)]
        for step, obj in enumerate(holdout[:24]):
            assert tiered.insert(obj) == resident.insert(obj)
            if step == 3:
                tiered.delete(7)
                resident.delete(7)
            tiered.run_maintenance_slice()
            resident.run_maintenance_slice()
            self.assert_same_answers(resident, tiered, queries)
        assert tiered.maintenance.swaps_completed >= 1
        tiered.maintenance.run_to_completion()
        resident.maintenance.run_to_completion()
        assert_leaf_clustered(tiered)
        self.assert_same_answers(resident, tiered, queries)
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_int_store_promotion_after_relayout_invalidates_every_block(self, points_2d):
        data = np.round(points_2d[:400] * 10).astype(np.int32)
        resident = GTS.build(data, EuclideanDistance(), node_capacity=8, seed=3)
        tiered = GTS.build(
            data, EuclideanDistance(), node_capacity=8, seed=3,
            tier=TierConfig(memory_budget_bytes=1024, block_bytes=128),
        )
        store, pager = tiered.pager.store, tiered.pager
        for i in range(10):
            tiered.knn_query(data[i], 5)
        assert pager.resident_bytes > 0
        narrow = store.block_nbytes(0)
        invalidations = pager.stats.invalidations
        new_id = tiered.insert(np.array([0.5, 0.5]))  # int32 -> float64
        assert resident.insert(np.array([0.5, 0.5])) == new_id
        assert pager.resident_bytes == 0
        assert tiered.device.pool_used_bytes("pager") == 0
        assert pager.stats.invalidations > invalidations
        assert store.block_nbytes(0) == 2 * narrow
        assert_leaf_clustered(tiered)
        queries = [np.array([0.5, 0.5])] + [data[i] for i in range(8)]
        self.assert_same_answers(resident, tiered, queries)
        assert tiered.range_query(np.array([0.5, 0.5]), 0.01) == [(new_id, 0.0)]
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_same_width_promotion_invalidates_every_block(self, points_2d):
        """int64 -> float64 keeps 8 B a value yet rewrites every row, so no
        staged block may survive it."""
        data = np.round(points_2d[:400] * 10).astype(np.int64)
        resident = GTS.build(data, EuclideanDistance(), node_capacity=8, seed=3)
        tiered = GTS.build(
            data, EuclideanDistance(), node_capacity=8, seed=3,
            tier=TierConfig(memory_budget_bytes=1024, block_bytes=128),
        )
        for i in range(20):
            tiered.knn_query(data[i], 5)
        store, pager = tiered.pager.store, tiered.pager
        staged = len(pager.resident_blocks)
        assert staged > 1
        invalidations = pager.stats.invalidations
        width = store.block_nbytes(0)
        new_id = tiered.insert(np.array([0.5, 0.5]))
        assert resident.insert(np.array([0.5, 0.5])) == new_id
        assert tiered._objects.dtype == np.float64
        assert pager.resident_blocks == []
        assert pager.stats.invalidations == invalidations + staged
        assert store.block_nbytes(0) == width
        queries = [np.array([0.5, 0.5])] + [data[i] for i in range(8)]
        self.assert_same_answers(resident, tiered, queries)
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_persistence_rederives_the_layout(self, points_2d, tmp_path):
        points = points_2d[:400]
        index = GTS.build(
            points, EuclideanDistance(), node_capacity=8, seed=5, tier=self.TIER
        )
        for obj in points_2d[400:403]:
            index.insert(obj)  # appended ids: tail slots, cached
        index.delete(11)
        loaded = GTS.load(index.save(tmp_path / "layout.npz"))
        np.testing.assert_array_equal(loaded.pager.store.slot_of, index.pager.store.slot_of)
        queries = [points[i] for i in range(12)] + [points_2d[401]]
        for copy in (index, loaded):
            copy.pager.release()  # both start from a cold pool
            copy.pager.stats.reset()
        answers = [
            (copy.knn_query_batch(queries, 5), copy.range_query_batch(queries, 0.6))
            for copy in (index, loaded)
        ]
        assert answers[0] == answers[1]
        assert loaded.pager.stats.as_dict() == index.pager.stats.as_dict()
        assert index.pager.stats.misses > 0
        index.close()
        loaded.close()

    def test_every_string_block_fits_the_budget_after_build(self, word_list, edit_metric):
        budget = max(64, objects_nbytes(word_list) // 5)
        index = GTS.build(
            word_list, edit_metric, node_capacity=6,
            tier=TierConfig(memory_budget_bytes=budget, block_bytes=64),
        )
        store = index.pager.store
        assert not np.array_equal(store.slot_of, np.arange(len(store)))
        assert all(store.block_nbytes(b) <= budget for b in range(store.num_blocks))
        index.close()

    def test_budget_that_only_fits_id_range_blocks_fails_at_build(self, word_list, edit_metric):
        # the leaf-clustered layout groups similar (here: similarly long)
        # words, so its largest block can outgrow every id-range block; the
        # install re-checks the budget instead of failing mid-query
        budget = TieredObjectStore(make_object_store(word_list), 64).largest_block_nbytes()
        with pytest.raises(TierError, match="largest object block"):
            GTS.build(
                word_list, edit_metric, node_capacity=6,
                tier=TierConfig(memory_budget_bytes=budget, block_bytes=64),
            )


# ---------------------------------------------------------------------------
# Pinned prefix: the live tree's pivot rows stay on the device, unpaged
# ---------------------------------------------------------------------------
class ReferenceLRU:
    """An LRU pool of blocks fed one access at a time, budget in bytes.

    Knows nothing of runs, waves or the pinned-slot test of
    ``PagedObjects.fault``: :class:`PagerTrace` feeds it one access per
    object read by a kernel, pinned objects removed.
    """

    def __init__(self, budget_bytes):
        self.budget_bytes = budget_bytes
        self.resident = OrderedDict()  # block -> bytes staged
        self.hits = self.misses = self.evictions = self.bytes_h2d = 0

    def access(self, block, nbytes):
        if block in self.resident:
            self.hits += 1
            self.resident.move_to_end(block)
            return
        self.misses += 1
        while sum(self.resident.values()) + nbytes > self.budget_bytes:
            self.resident.popitem(last=False)
            self.evictions += 1
        self.resident[block] = nbytes
        self.bytes_h2d += nbytes

    def counters(self):
        return self.hits, self.misses, self.evictions, self.bytes_h2d


class PagerTrace:
    """Every kernel's fault list and every invalidation of the tiered ports
    and pagers, recorded from before the first build.

    Each fault list is taken apart as the layout of that moment defines it:
    the ids whose slot lies in the pinned prefix are removed, the rest go to
    block ``(slot - pinned) // objects_per_block``, and each block's size is
    the host store's bytes of the ids at its slots.  :meth:`replay` runs the
    recorded accesses through a :class:`ReferenceLRU`.
    """

    def __init__(self, monkeypatch):
        from repro.tier import PagedObjects

        self.events = []
        real_fault, real_invalidate = PagedObjects.fault, BlockPager.invalidate
        trace = self

        def fault(port, obj_ids):
            trace._record(port, obj_ids)
            return real_fault(port, obj_ids)

        def invalidate(pager, block_id):
            trace.events.append((pager, None, int(block_id)))
            return real_invalidate(pager, block_id)

        monkeypatch.setattr(PagedObjects, "fault", fault)
        monkeypatch.setattr(BlockPager, "invalidate", invalidate)

    def _record(self, port, obj_ids):
        store = port.store
        slot_of = np.asarray(store.slot_of)
        pinned, per_block, n = store.pinned, store.objects_per_block, len(store)
        at_slot = np.argsort(slot_of)
        slots = slot_of[np.asarray(obj_ids, dtype=np.int64)]
        blocks = ((slots[slots >= pinned] - pinned) // per_block).tolist()
        sizes = {
            block: store.raw.nbytes(
                at_slot[pinned + block * per_block : min(pinned + (block + 1) * per_block, n)]
            )
            for block in set(blocks)
        }
        self.events.append((port.pager, blocks, sizes))

    def replay(self, pager):
        reference = ReferenceLRU(pager.budget_bytes)
        for owner, blocks, detail in self.events:
            if owner is not pager:
                continue
            if blocks is None:
                reference.resident.pop(detail, None)
                continue
            for block in blocks:
                reference.access(block, detail[block])
        return reference

    def assert_matches(self, pager):
        reference = self.replay(pager)
        stats = pager.stats
        assert reference.counters() == (stats.hits, stats.misses, stats.evictions, stats.bytes_h2d)
        assert sorted(reference.resident) == pager.resident_blocks
        return reference


def pinned_tables(index):
    """The live pinned-row allocations of ``index``'s device."""
    return [a for a in index.device.live_allocations() if a.label == "tier-pinned-rows"]


def assert_pinned_current(index):
    """The store pins exactly the live tree's distinct pivots, and the
    device holds one table of their current bytes in the tree pool."""
    store, pivots = index.pager.store, distinct_pivots(index.tree)
    assert store.pinned == len(pivots) > 0
    np.testing.assert_array_equal(store.pinned_ids, pivots)
    (table,) = pinned_tables(index)
    assert table.pool == "tree"
    assert table.nbytes == index._objects.nbytes(pivots)
    return table


def pinned_h2d(index):
    from repro.tier import PINNED_H2D_LABEL

    return index.device.stats.transfer_seconds.get(PINNED_H2D_LABEL, 0.0)


def pinned_charge(index):
    """Simulated seconds of staging ``index``'s pinned rows once."""
    nbytes = index._objects.nbytes(index.pager.store.pinned_ids)
    return index.tier_config.fault_latency + nbytes / index.device.spec.transfer_bandwidth


def tiered_datasets():
    from repro.datasets import get_dataset

    return {
        "tloc": (get_dataset("tloc", cardinality=800, seed=5), 8, 256),
        "vector": (get_dataset("vector", cardinality=300, seed=5), 6, 4096),
        "words": (get_dataset("words", cardinality=300, seed=5), 6, 128),
    }


class TestPinnedPrefix:
    CAPS = (0.5, 0.25, 0.1)

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("name", ["tloc", "vector", "words"])
    def test_pager_counters_match_a_reference_lru_and_answers_stay_exact(
        self, monkeypatch, name, cap
    ):
        from repro.approx import ApproximateGTS, LearnedLeafRouter

        data, node_capacity, block_bytes = tiered_datasets()[name]
        objects, metric = data.objects, data.metric
        indexed, holdout = objects[:-20], objects[-20:]
        budget = max(2 * block_bytes, int(objects_nbytes(indexed) * cap))
        tier = TierConfig(memory_budget_bytes=budget, block_bytes=block_bytes)
        trace = PagerTrace(monkeypatch)
        # a cache of about two rows: the inserts below overflow it
        cache = max(64, 2 * objects_nbytes(holdout[:1]))
        options = dict(node_capacity=node_capacity, seed=3, cache_capacity_bytes=cache)
        resident = GTS.build(indexed, metric, **options)
        tiered = GTS.build(indexed, metric, tier=tier, **options)
        assert_pinned_current(tiered)
        queries = [objects[i] for i in range(0, len(indexed), len(indexed) // 8)][:8]
        radius = {"tloc": 0.2, "vector": 0.3, "words": 2.0}[name]
        for step in range(3):
            for index in (resident, tiered):
                index.insert(holdout[step])
                index.delete(3 * step + 1)
            answers = [
                (index.knn_query_batch(queries, 5), index.range_query_batch(queries, radius))
                for index in (resident, tiered)
            ]
            assert answers[1] == answers[0]
            trace.assert_matches(tiered.pager)
        approx = [
            (ApproximateGTS(index, beam_width=2).knn_query_batch(queries, 5),
             LearnedLeafRouter(index, leaf_budget=3, training_queries=queries[:4])
             .range_query_batch(queries, radius))
            for index in (resident, tiered)
        ]
        assert approx[1] == approx[0]
        for index in (resident, tiered):
            index.batch_update(inserts=holdout[3:8], deletes=[40])
            index.rebuild()
        assert tiered.knn_query_batch(queries, 6) == resident.knn_query_batch(queries, 6)
        reference = trace.assert_matches(tiered.pager)
        assert reference.misses > 0 and reference.hits > 0
        if cap < 0.5:
            assert reference.evictions > 0
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_pivot_kernels_make_no_pager_access(self, monkeypatch):
        from repro.approx import ApproximateGTS, LearnedLeafRouter
        from repro.gpusim import Device as DeviceClass

        data, node_capacity, block_bytes = tiered_datasets()["tloc"]
        tier = TierConfig(
            memory_budget_bytes=objects_nbytes(data.objects) // 4, block_bytes=block_bytes
        )
        index = GTS.build(data.objects, data.metric, node_capacity=node_capacity, seed=3, tier=tier)
        router = LearnedLeafRouter(index, leaf_budget=3, training_queries=data.objects[:8])
        # the pager accesses charged since the device's previous kernel
        # belong to the kernel launched next: a kernel faults, then launches
        launches = []
        real_launch = DeviceClass.launch_kernel
        last = [index.pager.stats.accesses]

        def launch(device, *args, **kwargs):
            if device is index.device:
                accesses = index.pager.stats.accesses
                launches.append((kwargs.get("label"), accesses - last[0]))
                last[0] = accesses
            return real_launch(device, *args, **kwargs)

        monkeypatch.setattr(DeviceClass, "launch_kernel", launch)
        queries = [data.objects[i] for i in range(0, 800, 100)]
        index.knn_query_batch(queries, 8)
        index.range_query_batch(queries, 0.3)
        ApproximateGTS(index, beam_width=3).knn_query_batch(queries, 8)
        router.knn_query_batch(queries, 8)
        pivot = [accesses for label, accesses in launches if label == "pivot-distances"]
        verify = [accesses for label, accesses in launches if label.endswith("-verify")]
        assert len(pivot) >= 10 and set(pivot) == {0}
        assert sum(verify) > 0
        index.close()

    def test_table_is_replaced_at_every_install_and_freed_on_close(self, points_2d):
        points, holdout = points_2d[:450], points_2d[450:]
        tier = TierConfig(memory_budget_bytes=2048, block_bytes=256)
        index = GTS.build(
            points, EuclideanDistance(), node_capacity=8, seed=11, tier=tier,
            cache_capacity_bytes=128,
        )
        installs = [(index.tree, assert_pinned_current(index), pinned_h2d(index))]
        assert installs[0][2] == pytest.approx(pinned_charge(index))

        def installed():
            table = assert_pinned_current(index)
            tree, _, seconds = installs[-1]
            assert index.tree is not tree
            assert pinned_h2d(index) == pytest.approx(seconds + pinned_charge(index))
            installs.append((index.tree, table, pinned_h2d(index)))

        index.rebuild()
        installed()
        index.batch_update(inserts=holdout[:10], deletes=[2, 3])
        installed()
        index.enable_incremental_maintenance()
        for obj in holdout[10:40]:
            index.insert(obj)
            index.run_maintenance_slice()
            if index.tree is not installs[-1][0]:
                installed()  # a generation swap
        assert index.maintenance.swaps_completed >= 1
        assert len(installs) >= 4
        queries = [points[i] for i in range(8)]
        resident = GTS.build(points, EuclideanDistance(), node_capacity=8, seed=11)
        resident.rebuild()
        resident.batch_update(inserts=holdout[:10], deletes=[2, 3])
        for obj in holdout[10:40]:
            resident.insert(obj)
        assert index.knn_query_batch(queries, 5) == resident.knn_query_batch(queries, 5)
        index.close()
        assert pinned_tables(index) == []
        index.device.assert_no_leaks()
        resident.close()

    def test_bulk_load_frees_the_previous_table(self, points_2d):
        tier = TierConfig(memory_budget_bytes=2048, block_bytes=256)
        index = GTS.build(points_2d[:300], EuclideanDistance(), node_capacity=8, tier=tier)
        index.bulk_load(points_2d[300:])
        assert_pinned_current(index)
        index.close()
        index.device.assert_no_leaks()

    @pytest.mark.parametrize("dtype, widened", [(np.int32, True), (np.int64, False)])
    def test_a_dtype_promotion_restages_the_pinned_rows(self, points_2d, dtype, widened):
        data = np.round(points_2d[:400] * 10).astype(dtype)
        resident = GTS.build(data, EuclideanDistance(), node_capacity=8, seed=3)
        tiered = GTS.build(
            data, EuclideanDistance(), node_capacity=8, seed=3,
            tier=TierConfig(memory_budget_bytes=1024, block_bytes=128),
        )
        before = assert_pinned_current(tiered)
        seconds = pinned_h2d(tiered)
        tiered.insert(np.array([0.5, 0.5]))  # promotes the store to float64
        resident.insert(np.array([0.5, 0.5]))
        after = assert_pinned_current(tiered)
        assert (after.nbytes == 2 * before.nbytes) if widened else (after is before)
        assert pinned_h2d(tiered) == pytest.approx(seconds + pinned_charge(tiered))
        # a plain append leaves the pinned rows as they are
        seconds = pinned_h2d(tiered)
        tiered.insert(np.array([1.5, 0.5]))
        resident.insert(np.array([1.5, 0.5]))
        assert pinned_h2d(tiered) == seconds and assert_pinned_current(tiered) is after
        queries = [np.array([0.5, 0.5])] + [data[i] for i in range(8)]
        assert tiered.knn_query_batch(queries, 6) == resident.knn_query_batch(queries, 6)
        resident.close()
        tiered.close()
        tiered.device.assert_no_leaks()

    def test_persistence_round_trip_stages_the_table_and_serves_identically(
        self, points_2d, tmp_path
    ):
        points = points_2d[:400]
        tier = TierConfig(memory_budget_bytes=2048, block_bytes=256)
        index = GTS.build(points, EuclideanDistance(), node_capacity=8, seed=5, tier=tier)
        index.insert(points_2d[500])
        index.delete(9)
        loaded = GTS.load(index.save(tmp_path / "pinned.npz"))
        assert loaded.pager.store.pinned == index.pager.store.pinned
        np.testing.assert_array_equal(loaded.pager.store.pinned_ids, index.pager.store.pinned_ids)
        assert_pinned_current(loaded)
        assert pinned_h2d(loaded) == pytest.approx(pinned_charge(loaded))
        assert loaded.pager.stats.accesses == 0  # the load paged no block
        queries = [points[i] for i in range(12)] + [points_2d[500]]
        index.pager.release()  # both serve from a cold pool
        index.pager.stats.reset()
        answers = [
            (copy.knn_query_batch(queries, 5), copy.range_query_batch(queries, 0.6))
            for copy in (index, loaded)
        ]
        assert answers[1] == answers[0]
        assert loaded.pager.stats.as_dict() == index.pager.stats.as_dict()
        for copy in (index, loaded):
            copy.close()
            copy.device.assert_no_leaks()


class TestSlotOrderedBuilds:
    """Construction faults each level's reads once, in physical-slot order."""

    TREE_FIELDS = ("pivot", "pos", "size", "min_dis", "max_dis", "obj_ids", "obj_dis")

    @pytest.mark.parametrize("data", ["vectors", "strings"])
    @pytest.mark.parametrize("strategy", ["fft", "random", "center"])
    def test_tiered_and_resident_builds_give_identical_trees(
        self, points_2d, word_list, data, strategy
    ):
        objects, metric = (
            (points_2d, EuclideanDistance()) if data == "vectors" else (word_list, EditDistance())
        )
        options = dict(node_capacity=5, seed=4, pivot_strategy=strategy)
        resident = GTS.build(objects, metric, **options)
        tiered = GTS.build(
            objects, metric, tier=TierConfig(memory_budget_bytes=1024, block_bytes=256), **options
        )
        for name in self.TREE_FIELDS:
            np.testing.assert_array_equal(getattr(tiered.tree, name), getattr(resident.tree, name))
        resident.close()
        tiered.close()

    def test_tiered_build_pages_each_block_once_per_level(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(2000, 2))
        # 64 points per 1 KiB block under the build's identity layout; the
        # install then pins the 21 pivots and stages no block
        index = GTS.build(
            points, EuclideanDistance(), node_capacity=20, seed=3,
            tier=TierConfig(memory_budget_bytes=8 * 1024, block_bytes=1024),
        )
        store, stats = index.pager.store, index.pager.stats
        assert store.pinned == 21
        build_blocks = -(-len(store) // store.objects_per_block)
        # every mapped level faults each block once
        assert stats.misses <= index.tree.height * build_blocks
        assert stats.transactions <= index.tree.height * build_blocks
        index.close()

    def test_sharded_tiered_build_misses_stay_within_levels_times_blocks(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(4000, 2))
        index = ShardedGTS.build(
            points, EuclideanDistance(), num_shards=2, node_capacity=20, seed=3,
            tier=TierConfig(memory_budget_bytes=8 * 1024, block_bytes=1024),
        )
        # every shard's build maps its store in the identity layout
        bound = sum(
            shard.tree.height * -(-len(shard.pager.store) // shard.pager.store.objects_per_block)
            for shard in index.shards
        )
        assert index.pager_stats()["misses"] <= bound
        index.close()


class TestBlockCoalescedGathers:
    def test_leaf_candidates_come_in_block_order(self, points_2d, rng):
        from repro.core.searchcommon import leaf_candidate_segments

        index = GTS.build(
            points_2d, EuclideanDistance(), node_capacity=6, seed=2,
            tier=TierConfig(memory_budget_bytes=2048, block_bytes=256),
        )
        tree, store = index.tree, index.pager.store
        leaves = tree.leaves()
        leaf_q = np.repeat(np.arange(8, dtype=np.int64), 5)
        leaf_node = rng.choice(leaves, size=len(leaf_q))
        unique_queries, boundaries, obj_ids = leaf_candidate_segments(
            tree, leaf_q, leaf_node, None, slot_of=store.slot_of
        )
        assert len(unique_queries) == 8
        for start, end in zip(boundaries[:-1], boundaries[1:]):
            assert np.all(np.diff(store.blocks_of(obj_ids[start:end])) >= 0)
        index.close()

    def test_single_query_verification_faults_each_block_once(
        self, points_2d, monkeypatch
    ):
        from repro.core import search

        index = GTS.build(
            points_2d, EuclideanDistance(), node_capacity=6, seed=2,
            tier=TierConfig(memory_budget_bytes=2 * 256, block_bytes=256),
        )
        pager = index.pager
        faults: list[list[int]] = []
        # (transactions, misses) the verification kernel charged
        charged: list[tuple[int, int]] = []
        real_stage, real_verify = pager._stage, search.verify_leaves

        def recording_verify(*args, **kwargs):
            faults.append([])

            def stage(block_id, nbytes):
                faults[-1].append(int(block_id))
                return real_stage(block_id, nbytes)

            before = (pager.stats.transactions, pager.stats.misses)
            monkeypatch.setattr(pager, "_stage", stage)
            try:
                return real_verify(*args, **kwargs)
            finally:
                monkeypatch.setattr(pager, "_stage", real_stage)
                charged.append(
                    (pager.stats.transactions - before[0], pager.stats.misses - before[1])
                )

        monkeypatch.setattr(search, "verify_leaves", recording_verify)
        for qi in range(0, 600, 60):
            faults.clear()
            charged.clear()
            index.knn_query(points_2d[qi], 8)
            assert len(faults) == 1  # one leaf-verification gather
            assert faults[0], "the verification gather faulted no block"
            assert len(faults[0]) == len(set(faults[0]))
            transactions, misses = charged[0]
            assert misses == len(faults[0])
            assert 1 <= transactions <= misses
        index.close()


    def test_host_chunking_is_invisible_to_the_pager(self, monkeypatch):
        from repro.core import objectstore
        from repro.datasets import get_dataset

        data = get_dataset("vector", cardinality=400, seed=3)  # 300-d angular
        queries = [data.objects[i] for i in range(0, 400, 25)]
        tier = TierConfig(
            memory_budget_bytes=objects_nbytes(data.objects) // 4, block_bytes=4096
        )

        def run():
            calls_before = data.metric.counter.calls
            index = GTS.build(
                data.objects, data.metric, node_capacity=10, seed=4,
                device=Device(DeviceSpec()), tier=tier,
            )
            build_calls = data.metric.counter.calls - calls_before
            answers = (index.range_query_batch(queries, 0.6), index.knn_query_batch(queries, 6))
            stats = index.device.stats.as_dict()
            del stats["host_time"]  # wall clock
            pager = index.pager.stats.as_dict()
            index.close()
            return (answers, stats, pager), build_calls

        default, default_calls = run()
        # a few 300-d rows per host chunk
        monkeypatch.setattr(objectstore, "GATHER_CHUNK_ELEMENTS", 1000)
        tiny, tiny_calls = run()
        assert default[2]["misses"] > default[2]["transactions"] > 0
        # the mapping phase really ran in many chunks per level
        assert tiny_calls > 4 * default_calls
        assert tiny == default


# ---------------------------------------------------------------------------
# Tiered index behind the serving layer and the shard layer
# ---------------------------------------------------------------------------
class TestTieredServing:
    def test_service_over_tiered_index_matches_sequential_replay(self, points_2d):
        from repro.service import GTSService
        from repro.service.experiment import sequential_replay

        points, holdout = points_2d[:400], points_2d[400:]
        nbytes = objects_nbytes(points)
        tier = TierConfig(memory_budget_bytes=nbytes // 4, block_bytes=256)
        tiered = GTS.build(points, EuclideanDistance(), node_capacity=8, seed=9, tier=tier)
        service = GTSService(tiered)
        for i in range(10):
            service.submit("knn", points[i], k=4)
        service.submit("insert", holdout[0])
        service.submit("range", points[3], radius=0.5)
        service.submit("delete", 7)
        service.submit("knn", points[5], k=3)
        responses = service.flush()

        oracle = GTS.build(points, EuclideanDistance(), node_capacity=8, seed=9)
        requests = [r.request for r in responses]
        assert [r.result for r in responses] == sequential_replay(oracle, requests)
        tiered.close()
        oracle.close()

    def test_sharded_tiered_matches_resident_sharded(self, points_2d):
        points = points_2d[:480]
        nbytes = objects_nbytes(points)
        resident = ShardedGTS.build(
            points, EuclideanDistance(), num_shards=3, node_capacity=8, seed=13
        )
        tiered = ShardedGTS.build(
            points, EuclideanDistance(), num_shards=3, node_capacity=8, seed=13,
            tier=TierConfig(memory_budget_bytes=max(512, nbytes // 8), block_bytes=256),
        )
        assert tiered.tiered
        queries = [points[i] for i in range(12)]
        assert tiered.knn_query_batch(queries, 5) == resident.knn_query_batch(queries, 5)
        assert tiered.range_query_batch(queries, 0.6) == resident.range_query_batch(queries, 0.6)
        stats = tiered.pager_stats()
        assert stats["misses"] > 0 and 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["transactions"] == sum(s.pager.stats.transactions for s in tiered.shards)
        assert 0 < stats["transactions"] <= stats["misses"]
        # the coordinating timeline absorbed the shards' attributed traffic
        assert tiered.device.stats.transfer_seconds.get("pager-h2d", 0.0) > 0
        resident.close()
        tiered.close()

    def test_resident_sharded_reports_no_pager_stats(self, points_2d):
        index = ShardedGTS.build(points_2d[:300], EuclideanDistance(), num_shards=2, node_capacity=8)
        assert index.pager_stats() is None
        index.close()


# ---------------------------------------------------------------------------
# Experiment + CLI
# ---------------------------------------------------------------------------
class TestMemoryTieringExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return experiment_memory_tiering(
            cardinality=600,
            num_queries=12,
            k=5,
            cap_fractions=(1.0, 0.25),
        )

    def test_every_cell_is_exact(self, result):
        assert len(result.rows) == 3  # resident + one row per cap
        assert all(row["status"] == "ok" and row["correct"] for row in result.rows)

    def test_tight_caps_pay_attributed_transfer_time(self, result):
        full = next(r for r in result.rows if r["tiered"] and r["cap_fraction"] == 1.0)
        tight = next(r for r in result.rows if r["tiered"] and r["cap_fraction"] == 0.25)
        assert tight["hit_rate"] < full["hit_rate"]
        assert tight["h2d_seconds"] > full["h2d_seconds"]
        assert tight["knn_slowdown"] > 1.0
        assert tight["pager_peak_bytes"] <= tight["budget_bytes"]
        assert all(row["tree_peak_bytes"] > 0 for row in result.rows)

    def test_registered_in_the_cli(self):
        from repro.cli import EXPERIMENT_REGISTRY

        assert "memory-tiering" in EXPERIMENT_REGISTRY


class TestServeSimTiered:
    def test_serve_sim_with_device_memory_cap_verifies(self, capsys):
        from repro.cli import main

        code = main([
            "serve-sim", "--dataset", "tloc", "--cardinality", "400",
            "--clients", "2", "--rate", "30000", "--duration", "0.001",
            "--device-memory", "0.002", "--block-kb", "0.25",
            "--max-batch", "16", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiering" in out
        assert "pager" in out
        assert "hit rate" in out
        assert "identical to sequential replay" in out

    def test_serve_sim_sharded_and_tiered(self, capsys):
        from repro.cli import main

        code = main([
            "serve-sim", "--dataset", "tloc", "--cardinality", "400",
            "--clients", "2", "--rate", "30000", "--duration", "0.001",
            "--shards", "2", "--device-memory", "0.002", "--block-kb", "0.25",
            "--max-batch", "16", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pager" in out
        assert "identical to sequential replay" in out


class TestCertifiedFilterOnTieredStore:
    """A tiered angular index runs the certified leaf filter (DESIGN.md §8).

    Every leaf candidate is faulted before the filter drops any, so the
    filtered run and the exact run (``distance_bounds`` returning None)
    must agree on answers, metric pairs, every pager counter and
    ``ExecutionStats`` — everything but the host wall-clock.
    """

    @staticmethod
    def _serve(data, queries):
        metric = AngularDistance()
        tier = TierConfig(memory_budget_bytes=objects_nbytes(data) // 4, block_bytes=4096)
        index = GTS.build(
            data, metric, node_capacity=10, seed=4, device=Device(DeviceSpec()), tier=tier
        )
        answers = [index.range_query_batch(queries, 0.3), index.knn_query_batch(queries, 8)]
        index.delete(int(index.knn_query(queries[0], 1)[0][0]))
        index.insert(data[5] + 0.01)
        answers += [index.range_query_batch(queries, 0.3), index.knn_query_batch(queries, 8)]
        stats = index.device.stats.as_dict()
        del stats["host_time"]  # wall clock
        observed = answers, metric.counter.pairs, index.pager.stats.as_dict(), stats
        index.close()
        return observed

    def test_filter_runs_and_changes_nothing_observable(self, monkeypatch):
        rng = np.random.default_rng(21)
        basis = rng.normal(size=(6, 32))
        data = rng.normal(size=(2000, 6)) @ basis + 0.2 * rng.normal(size=(2000, 32))
        queries = [data[i] + 0.05 for i in range(0, 2000, 125)]

        with monkeypatch.context() as mp:
            mp.setattr(AngularDistance, "distance_bounds", lambda self, *args, **kwargs: None)
            exact = self._serve(data, queries)

        calls, settled = [], []
        bounds = AngularDistance.distance_bounds
        segmented = AngularDistance.pairwise_segmented

        def spied_bounds(self, *args, **kwargs):
            calls.append(1)
            return bounds(self, *args, **kwargs)

        def spied_segmented(self, *args, settled_pairs=0, **kwargs):
            settled.append(settled_pairs)
            return segmented(self, *args, settled_pairs=settled_pairs, **kwargs)

        monkeypatch.setattr(AngularDistance, "distance_bounds", spied_bounds)
        monkeypatch.setattr(AngularDistance, "pairwise_segmented", spied_segmented)
        certified = self._serve(data, queries)
        assert calls, "the certified filter did not run on the tiered store"
        assert sum(settled) > 0, "the filter dropped no candidate pair"
        assert exact[2]["misses"] > 0  # the pool is smaller than the store
        assert certified[0] == exact[0]  # answers
        assert certified[1] == exact[1]  # MetricCounter.pairs
        assert certified[2] == exact[2]  # every pager counter
        assert certified[3] == exact[3]  # ExecutionStats without host_time
