"""Tests for the multi-device sharded index (repro.shard)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EditDistance, EuclideanDistance, ShardedGTS
from repro.core.construction import objects_nbytes
from repro.exceptions import IndexError_, QueryError, UpdateError
from repro.gpusim import DeviceSpec
from repro.service import GTSService, WorkloadSpec, generate_workload, sequential_replay
from repro.shard import (
    ASSIGNMENT_POLICIES,
    AssignmentPolicy,
    RoundRobinPolicy,
    SizeBalancedPolicy,
    make_assignment_policy,
)


@pytest.fixture
def single(points_2d) -> GTS:
    return GTS.build(points_2d, EuclideanDistance(), node_capacity=8, seed=5)


@pytest.fixture
def sharded(points_2d) -> ShardedGTS:
    return ShardedGTS.build(
        points_2d, EuclideanDistance(), num_shards=3, node_capacity=8, seed=5
    )


@pytest.fixture
def queries(points_2d):
    return [points_2d[i] + 0.01 for i in (0, 7, 42, 99, 310)]


class TestPolicies:
    def test_round_robin_balances_counts(self, points_2d):
        index = ShardedGTS.build(
            points_2d, EuclideanDistance(), num_shards=4, node_capacity=8, seed=5
        )
        sizes = index.shard_sizes
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(points_2d)

    def test_size_balanced_evens_out_bytes(self, word_list):
        index = ShardedGTS.build(
            word_list,
            EditDistance(),
            num_shards=3,
            assignment="size-balanced",
            node_capacity=8,
            seed=5,
        )
        loads = index.shard_load_bytes
        # variable-length strings: byte loads stay within one object of even
        assert max(loads) - min(loads) <= max(len(w) for w in word_list)

    def test_policy_objects_accepted_directly(self, points_2d):
        index = ShardedGTS.build(
            points_2d,
            EuclideanDistance(),
            num_shards=2,
            assignment=SizeBalancedPolicy(),
            node_capacity=8,
        )
        assert index.policy.name == "size-balanced"

    def test_registry_and_unknown_policy(self):
        assert set(ASSIGNMENT_POLICIES) == {"round-robin", "size-balanced"}
        assert isinstance(make_assignment_policy("round-robin"), RoundRobinPolicy)
        with pytest.raises(IndexError_):
            make_assignment_policy("hash-ring")


class _SignPolicy(AssignmentPolicy):
    """A custom policy that defines only ``assign``: shard by a string's
    length, or by the first coordinate's sign plus the id's parity."""

    name = "sign"

    def assign(self, obj_id, obj, loads):
        key = len(obj) if isinstance(obj, str) else int(float(obj[0]) > 0) + obj_id % 2
        return int(key) % len(loads)


class _ReversedRoundRobin(RoundRobinPolicy):
    """A round-robin subclass that overrides only ``assign``: its bulk
    loads must follow that ``assign``, not round-robin's closed form."""

    name = "reversed-round-robin"

    def assign(self, obj_id, obj, loads):
        return len(loads) - 1 - int(obj_id) % len(loads)


def _reference_partition(policy, objects, num_shards):
    """The per-object bulk-load loop the sliced partition replaced."""
    owner, to_global = {}, [[] for _ in range(num_shards)]
    loads, parts = [0.0] * num_shards, [[] for _ in range(num_shards)]
    for gid in range(len(objects)):
        obj = objects[gid]
        sid = policy.assign(gid, obj, loads)
        owner[gid] = (sid, len(parts[sid]))
        to_global[sid].append(gid)
        parts[sid].append(obj)
        loads[sid] += max(1, objects_nbytes([obj]))
    return owner, to_global, loads, parts


class TestBulkPartition:
    """Bulk loads partition by slicing exactly as the per-object loop did."""

    @pytest.mark.parametrize(
        "policy", ["round-robin", "size-balanced", "custom", "round-robin-subclass"]
    )
    @pytest.mark.parametrize("data", ["vectors", "vector-rows", "strings"])
    def test_matches_per_object_reference(self, points_2d, word_list, policy, data):
        if data == "strings":
            objects, metric = word_list, EditDistance()
        else:
            objects, metric = points_2d, EuclideanDistance()
            if data == "vector-rows":
                objects = [row for row in points_2d]
        assignment = {"custom": _SignPolicy(), "round-robin-subclass": _ReversedRoundRobin()}.get(
            policy, policy
        )
        index = ShardedGTS.build(objects, metric, num_shards=3, assignment=assignment,
                                 node_capacity=8, seed=5)
        owner, to_global, loads, parts = _reference_partition(index.policy, objects, 3)
        # the router's id maps: one ascending global-id array per shard
        assert {gid: index._resolve(gid) for gid in range(len(objects))} == owner
        assert [index._to_global[sid].tolist() for sid in range(3)] == to_global
        assert index.shard_load_bytes == loads
        assert index._next_id == len(objects)
        for sid, shard in enumerate(index.shards):
            stored = [shard.get_object(lid) for lid in range(len(parts[sid]))]
            if data == "strings":
                assert stored == parts[sid]
            else:
                np.testing.assert_array_equal(np.stack(stored), np.stack(parts[sid]))
        index.close()

    def test_size_balanced_ragged_strings_are_not_round_robin(self, word_list):
        nbytes = np.array([max(1, len(w)) for w in word_list])
        assert len(set(nbytes.tolist())) > 1
        owner = SizeBalancedPolicy().partition(word_list, nbytes, 3)
        reference, _, _, _ = _reference_partition(SizeBalancedPolicy(), word_list, 3)
        assert owner.tolist() == [reference[gid][0] for gid in range(len(word_list))]
        assert owner.tolist() != (np.arange(len(word_list)) % 3).tolist()

    def test_out_of_range_shard_rejected(self, points_2d):
        class Broken(AssignmentPolicy):
            name = "broken"

            def assign(self, obj_id, obj, loads):
                return -1

        with pytest.raises(IndexError_, match="shard in"):
            ShardedGTS.build(points_2d, EuclideanDistance(), num_shards=2, assignment=Broken())

    def test_empty_shard_rejected(self, points_2d):
        class First(AssignmentPolicy):
            name = "first"

            def assign(self, obj_id, obj, loads):
                return 0

        with pytest.raises(IndexError_, match="empty"):
            ShardedGTS.build(points_2d, EuclideanDistance(), num_shards=2, assignment=First())


class TestConstruction:
    def test_invalid_shard_count_rejected(self):
        with pytest.raises(IndexError_):
            ShardedGTS(EuclideanDistance(), num_shards=0)

    def test_more_shards_than_objects_rejected(self):
        with pytest.raises(IndexError_):
            ShardedGTS.build([np.zeros(2)] * 3, EuclideanDistance(), num_shards=5)

    def test_unbuilt_index_rejects_queries(self):
        index = ShardedGTS(EuclideanDistance(), num_shards=2)
        with pytest.raises(IndexError_):
            index.knn_query(np.zeros(2), 3)

    def test_build_report_makespan(self, points_2d):
        index = ShardedGTS(EuclideanDistance(), num_shards=3, node_capacity=8, seed=5)
        report = index.bulk_load(points_2d)
        assert len(report.per_shard) == 3
        assert report.sim_time == max(r.sim_time for r in report.per_shard)
        assert report.distance_computations == sum(
            r.distance_computations for r in report.per_shard
        )

    def test_close_releases_all_shard_devices(self, sharded):
        sharded.close()
        for shard in sharded.shards:
            assert shard.device.used_bytes == 0


class TestExactness:
    def test_range_batch_matches_single_device(self, single, sharded, queries):
        assert sharded.range_query_batch(queries, 0.8) == single.range_query_batch(
            queries, 0.8
        )

    def test_knn_batch_matches_single_device(self, single, sharded, queries):
        assert sharded.knn_query_batch(queries, 7) == single.knn_query_batch(queries, 7)

    def test_per_query_radii_and_k(self, single, sharded, queries):
        radii = [0.2, 0.5, 0.8, 1.1, 0.4]
        ks = [1, 3, 5, 7, 9]
        assert sharded.range_query_batch(queries, radii) == single.range_query_batch(
            queries, radii
        )
        assert sharded.knn_query_batch(queries, ks) == single.knn_query_batch(queries, ks)

    def test_string_metric_matches_single_device(self, word_list):
        single = GTS.build(word_list, EditDistance(), node_capacity=8, seed=5)
        sharded = ShardedGTS.build(
            word_list,
            EditDistance(),
            num_shards=3,
            assignment="size-balanced",
            node_capacity=8,
            seed=5,
        )
        assert sharded.knn_query("metric", 5) == single.knn_query("metric", 5)
        assert sharded.range_query("pivot", 2) == single.range_query("pivot", 2)

    def test_malformed_params_raise_query_error(self, sharded, queries):
        with pytest.raises(QueryError):
            sharded.range_query_batch(queries, [0.5, 0.5])
        with pytest.raises(QueryError):
            sharded.knn_query_batch(queries, [3] * (len(queries) + 1))
        with pytest.raises(QueryError):
            sharded.knn_query_batch(queries, 0)


class TestUpdates:
    def test_insert_routed_and_globally_visible(self, single, sharded):
        obj = np.array([55.0, -55.0])
        assert sharded.insert(obj) == single.insert(obj)
        assert sharded.knn_query(obj, 1) == single.knn_query(obj, 1)
        assert sharded.cache_size == 1

    def test_delete_routed(self, single, sharded, queries):
        sharded.delete(42)
        single.delete(42)
        assert sharded.range_query_batch(queries, 0.8) == single.range_query_batch(
            queries, 0.8
        )
        assert not sharded.is_live(42)

    def test_double_delete_rejected_without_charge(self, sharded):
        sharded.delete(10)
        before = sharded.device.stats.copy()
        with pytest.raises(UpdateError):
            sharded.delete(10)
        with pytest.raises(UpdateError):
            sharded.delete(len(sharded.shards[0]._objects) * 10 + 10_000)
        after = sharded.device.stats
        assert after.sim_time == before.sim_time
        assert after.kernel_launches == before.kernel_launches

    def test_update_assigns_fresh_global_id(self, sharded, points_2d):
        new_id = sharded.update(3, np.array([1.0, 2.0]))
        assert new_id == len(points_2d)
        assert not sharded.is_live(3)
        assert sharded.is_live(new_id)

    def test_update_is_checked_against_the_shard_it_goes_to(self, points_2d):
        """The replacement is sized by the shard the policy sends it to."""
        index = ShardedGTS.build(
            points_2d[:40].astype(np.float32), EuclideanDistance(), num_shards=2,
            node_capacity=8, cache_capacity_bytes=12, seed=5,
        )
        # round-robin: ids 40 and 42 go to shard 0 (exact in float32), 41 to
        # shard 1, whose store it promotes to float64
        index.batch_update(inserts=[[0.5, 0.5], [0.1, 2.0], [0.25, 0.5]])
        assert [shard._objects.row_nbytes for shard in index.shards] == [8, 16]
        before = (index.num_objects, index.shard_load_bytes, index.device.stats.as_dict())
        # id 43 goes to shard 1: a 16 B row, beyond its 12 B cache budget
        with pytest.raises(UpdateError):
            index.update(0, [1.0, 2.0])
        assert index.is_live(0)
        assert (index.num_objects, index.shard_load_bytes, index.device.stats.as_dict()) == before
        index.close()

    def test_update_with_a_wrong_shape_keeps_the_old_version(self, sharded):
        live = sharded.num_objects
        with pytest.raises(IndexError_):
            sharded.update(0, [1.0, 2.0, 3.0])
        assert sharded.is_live(0) and sharded.num_objects == live

    def test_batch_update_with_a_bad_insert_changes_nothing(self, sharded, points_2d):
        before = (
            sharded.num_objects, sharded.shard_load_bytes, sharded.device.stats.as_dict(),
            [shard.rebuild_count for shard in sharded.shards],
        )
        with pytest.raises(IndexError_):
            sharded.batch_update(inserts=[[0.1, 0.2], [1.0, 2.0, 3.0]], deletes=[3, 4])
        assert sharded.is_live(3) and sharded.is_live(4)
        assert before == (
            sharded.num_objects, sharded.shard_load_bytes, sharded.device.stats.as_dict(),
            [shard.rebuild_count for shard in sharded.shards],
        )
        assert sharded.insert([0.5, 0.5]) == len(points_2d)  # no id was used up

    def test_cache_overflow_rebuilds_only_owning_shard(self, points_2d):
        index = ShardedGTS.build(
            points_2d, EuclideanDistance(), num_shards=3, node_capacity=8,
            cache_capacity_bytes=64, seed=5,
        )
        per_shard_before = [s.rebuild_count for s in index.shards]
        while index.rebuild_count == sum(per_shard_before):
            index.insert(np.array([1.0, 1.0]))
        per_shard_after = [s.rebuild_count for s in index.shards]
        assert sum(per_shard_after) == sum(per_shard_before) + 1

    def test_batch_update_matches_single_device(self, single, sharded, queries):
        inserts = [np.array([9.0, 9.0]), np.array([-9.0, 9.0])]
        sharded.batch_update(inserts=inserts, deletes=[1, 2, 3])
        single.batch_update(inserts=inserts, deletes=[1, 2, 3])
        assert sharded.knn_query_batch(queries, 6) == single.knn_query_batch(queries, 6)
        assert sharded.num_objects == single.num_objects

    def test_batch_update_rejects_tombstoned_and_unknown(self, sharded):
        sharded.delete(5)
        with pytest.raises(UpdateError):
            sharded.batch_update(deletes=[5])
        with pytest.raises(UpdateError):
            sharded.batch_update(deletes=[10_000_000])

    def test_rebuild_drops_tombstones_everywhere(self, sharded):
        for obj_id in (0, 1, 2, 3):
            sharded.delete(obj_id)
        sharded.rebuild()
        assert all(len(s._tombstones) == 0 for s in sharded.shards)


class TestAccounting:
    def test_query_charges_makespan_plus_merge(self, sharded, queries):
        shard_befores = [s.device.snapshot() for s in sharded.shards]
        coord_before = sharded.device.stats.sim_time
        host_before = sharded.host.stats.sim_time
        sharded.knn_query_batch(queries, 5)
        deltas = [
            s.device.stats.delta_since(b).sim_time
            for s, b in zip(sharded.shards, shard_befores)
        ]
        coord_delta = sharded.device.stats.sim_time - coord_before
        merge_delta = sharded.host.stats.sim_time - host_before
        # coordinator advanced by the slowest shard plus the host merge term:
        # parallel across shards, never the sum
        assert coord_delta == pytest.approx(max(deltas) + merge_delta)
        assert coord_delta < sum(deltas) + merge_delta

    def test_work_counters_keep_cross_shard_totals(self, sharded, queries):
        before = sharded.device.stats.copy()
        shard_befores = [s.device.snapshot() for s in sharded.shards]
        sharded.range_query_batch(queries, 0.5)
        launches = sum(
            s.device.stats.delta_since(b).kernel_launches
            for s, b in zip(sharded.shards, shard_befores)
        )
        assert sharded.device.stats.kernel_launches - before.kernel_launches == launches

    def test_get_object_and_is_live_across_shards(self, sharded, points_2d):
        np.testing.assert_array_equal(sharded.get_object(123), points_2d[123])
        assert sharded.is_live(123)
        with pytest.raises(IndexError_):
            sharded.get_object(10_000_000)


class TestServiceIntegration:
    def test_execute_batch_matches_sequential_single_device(self, points_2d):
        sharded = ShardedGTS.build(
            points_2d, EuclideanDistance(), num_shards=3, node_capacity=8, seed=5
        )
        single = GTS.build(points_2d, EuclideanDistance(), node_capacity=8, seed=5)
        ops = [
            ("knn", points_2d[4], 3),
            ("knn", points_2d[9], 5),
            ("range", points_2d[0], 0.6),
            ("insert", np.array([4.0, 4.0])),
            ("knn", np.array([4.0, 4.0]), 1),
            ("delete", 17),
            ("range", points_2d[17], 1e-9),
        ]
        assert sharded.execute_batch(ops) == single.execute_batch(ops)

    def test_execute_batch_unknown_kind_rejected(self, sharded):
        with pytest.raises(QueryError):
            sharded.execute_batch([("upsert", np.zeros(2))])

    def test_malformed_batch_rejected_before_anything_runs(self, sharded):
        stats = sharded.device.stats.copy()
        size, cached = len(sharded), sharded.cache_size
        with pytest.raises(QueryError):
            sharded.execute_batch([("insert", np.zeros(2)), ("frobnicate", np.zeros(2), 1)])
        assert (len(sharded), sharded.cache_size) == (size, cached)
        assert sharded.device.stats == stats

    def test_update_free_batch_makes_one_call_per_kind(
        self, single, sharded, queries, spy_batch_calls
    ):
        calls = spy_batch_calls(sharded)
        ops = [("range", q, 0.6) if i % 2 else ("knn", q, 4) for i, q in enumerate(queries)]
        got = sharded.execute_batch(ops)
        assert calls == [("range_query_batch", 2), ("knn_query_batch", 3)]
        assert got == single.execute_batch(ops)

    def test_one_call_per_kind_per_segment(self, points_2d, sharded, spy_batch_calls, mixed_batches):
        replay, _ = mixed_batches
        calls = spy_batch_calls(sharded)
        ops = [
            ("range", points_2d[0], 0.6),
            ("knn", points_2d[1], 4),
            ("insert", np.array([4.0, 4.0])),
            ("knn", np.array([4.0, 4.0]), 2),
            ("range", points_2d[2], 0.6),
            ("delete", 3),
            ("range", points_2d[3], 0.6),
        ]
        got = sharded.execute_batch(ops)
        assert [name for name, _ in calls] == ["range_query_batch", "knn_query_batch"] * 2 + [
            "range_query_batch"
        ]
        fresh = ShardedGTS.build(points_2d, EuclideanDistance(), num_shards=3, node_capacity=8, seed=5)
        assert got == replay(fresh, ops)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_interleaving_matches_sequential_replay(self, points_2d, sharded, seed, mixed_batches):
        replay, random_batch = mixed_batches
        insertable = np.random.default_rng(seed).normal(scale=10.0, size=(40, 2))
        ops = random_batch(sharded, points_2d, insertable, seed)
        fresh = ShardedGTS.build(points_2d, EuclideanDistance(), num_shards=3, node_capacity=8, seed=5)
        assert sharded.execute_batch(ops) == replay(fresh, ops)

    def test_service_serves_sharded_index_unchanged(self, points_2d):
        num_indexed = 500
        sharded = ShardedGTS.build(
            points_2d[:num_indexed], EuclideanDistance(), num_shards=3,
            node_capacity=8, seed=5,
        )
        spec = WorkloadSpec(
            num_clients=4, rate_per_client=150_000.0, duration=1e-3,
            radius=0.6, k=5, seed=3,
        )
        workload = generate_workload(points_2d, num_indexed, spec)
        service = GTSService(sharded)
        responses = service.serve(workload.requests)

        oracle = GTS.build(
            points_2d[:num_indexed], EuclideanDistance(), node_capacity=8, seed=5
        )
        expected = sequential_replay(oracle, workload.requests)
        assert [r.result for r in responses] == expected
        assert len(service.batches) >= 1
