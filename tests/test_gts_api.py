"""Tests for the public GTS facade: lifecycle, queries, errors and accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EditDistance, EuclideanDistance, ShardedGTS
from repro.exceptions import IndexError_, QueryError, UpdateError
from repro.gpusim import Device, DeviceSpec
from repro.tier import TierConfig
from tests.conftest import brute_force_knn, brute_force_range


@pytest.fixture
def index(points_2d, l2_metric):
    return GTS.build(points_2d, l2_metric, node_capacity=8)


class TestLifecycle:
    def test_build_classmethod(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric)
        assert index.num_objects == len(points_2d)
        assert index.height >= 1

    def test_unbuilt_index_rejects_queries(self, l2_metric):
        index = GTS(l2_metric)
        with pytest.raises(IndexError_):
            index.range_query([0.0, 0.0], 1.0)

    def test_empty_bulk_load_rejected(self, l2_metric):
        index = GTS(l2_metric)
        with pytest.raises(IndexError_):
            index.bulk_load([])

    def test_invalid_node_capacity_rejected(self, l2_metric):
        with pytest.raises(IndexError_):
            GTS(l2_metric, node_capacity=1)

    def test_storage_and_build_result_exposed(self, index):
        assert index.storage_bytes > 0
        assert index.build_result.sim_time > 0
        assert index.build_result.distance_computations > 0

    def test_tree_invariants_after_build(self, index):
        index.tree.check_invariants()

    def test_close_releases_device_memory(self, points_2d, l2_metric):
        device = Device(DeviceSpec())
        index = GTS.build(points_2d, l2_metric, device=device)
        assert device.used_bytes > 0
        index.close()
        assert device.used_bytes == 0

    def test_len_and_repr(self, index, points_2d):
        assert len(index) == len(points_2d)
        assert "GTS" in repr(index)

    def test_get_object_roundtrip(self, index, points_2d):
        np.testing.assert_array_equal(index.get_object(5), points_2d[5])
        with pytest.raises(IndexError_):
            index.get_object(10_000)

    def test_string_dataset(self, word_list):
        index = GTS.build(word_list, EditDistance(), node_capacity=4)
        hits = index.range_query("metric", 1)
        assert all(isinstance(o, int) for o, _ in hits)


class TestQueries:
    def test_single_range_query_matches_brute_force(self, index, points_2d, l2_metric):
        got = index.range_query(points_2d[0], 1.0)
        expected = brute_force_range(points_2d, l2_metric, points_2d[0], 1.0)
        assert {o for o, _ in got} == {o for o, _ in expected}

    def test_batch_range_query(self, index, points_2d, l2_metric):
        queries = [points_2d[i] for i in range(5)]
        got = index.range_query_batch(queries, 0.8)
        assert len(got) == 5
        for qi, q in enumerate(queries):
            expected = brute_force_range(points_2d, l2_metric, q, 0.8)
            assert {o for o, _ in got[qi]} == {o for o, _ in expected}

    def test_single_knn_matches_brute_force(self, index, points_2d, l2_metric):
        got = index.knn_query(points_2d[3], 7)
        expected = brute_force_knn(points_2d, l2_metric, points_2d[3], 7)
        np.testing.assert_allclose(
            sorted(d for _, d in got), sorted(d for _, d in expected), atol=1e-9
        )

    def test_batch_knn_query_lengths(self, index, points_2d):
        got = index.knn_query_batch([points_2d[0], points_2d[1]], 3)
        assert [len(r) for r in got] == [3, 3]

    def test_invalid_k_rejected(self, index, points_2d):
        with pytest.raises(QueryError):
            index.knn_query(points_2d[0], 0)

    def test_prune_mode_option(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, prune_mode="one-sided")
        got = index.range_query(points_2d[0], 0.5)
        expected = brute_force_range(points_2d, l2_metric, points_2d[0], 0.5)
        assert {o for o, _ in got} == {o for o, _ in expected}

    def test_recommend_node_capacity_returns_candidate(self, index):
        nc = index.recommend_node_capacity(radius=0.5, candidates=(10, 20, 40))
        assert nc in (10, 20, 40)

    def test_distance_distribution_summary(self, index):
        dist = index.distance_distribution(sample_size=64)
        assert dist.mean > 0 and dist.std >= 0 and dist.max >= dist.mean


class TestStreamingUpdates:
    def test_insert_visible_in_queries(self, index):
        new = np.array([123.0, 456.0])
        obj_id = index.insert(new)
        hits = index.range_query(new, 0.1)
        assert (obj_id, 0.0) in hits

    def test_insert_goes_to_cache_first(self, index):
        before = index.num_indexed
        index.insert(np.array([1.0, 1.0]))
        assert index.cache_size == 1
        assert index.num_indexed == before

    def test_delete_hides_object(self, index, points_2d):
        index.delete(0)
        hits = index.range_query(points_2d[0], 0.001)
        assert 0 not in {o for o, _ in hits}
        assert not index.is_live(0)

    def test_delete_cached_object(self, index):
        obj_id = index.insert(np.array([9.0, 9.0]))
        index.delete(obj_id)
        assert index.cache_size == 0
        assert 0 not in {o for o, _ in index.range_query(np.array([9.0, 9.0]), 0.01)}

    def test_double_delete_rejected(self, index):
        index.delete(1)
        with pytest.raises(UpdateError):
            index.delete(1)

    def test_delete_unknown_id_rejected(self, index):
        with pytest.raises(UpdateError):
            index.delete(999_999)

    def test_update_replaces_object(self, index, points_2d):
        new_id = index.update(2, np.array([50.0, 50.0]))
        assert not index.is_live(2)
        hits = index.range_query(np.array([50.0, 50.0]), 0.01)
        assert new_id in {o for o, _ in hits}

    def test_num_objects_tracks_updates(self, index, points_2d):
        n = len(points_2d)
        index.insert(np.array([0.0, 0.0]))
        assert index.num_objects == n + 1
        index.delete(0)
        assert index.num_objects == n

    def test_cache_overflow_triggers_rebuild(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, cache_capacity_bytes=64)
        inserted = []
        for i in range(10):
            inserted.append(index.insert(np.array([100.0 + i, 100.0])))
        assert index.rebuild_count >= 1
        # after the rebuild the objects are in the tree, not the cache
        assert index.cache_size < 10
        hits = index.range_query(np.array([100.0, 100.0]), 0.01)
        assert inserted[0] in {o for o, _ in hits}

    def test_queries_merge_cache_and_tree(self, index, points_2d, l2_metric):
        new = points_2d[0] + 0.001
        new_id = index.insert(new)
        got = index.knn_query(points_2d[0], 3)
        ids = {o for o, _ in got}
        assert new_id in ids

    def test_knn_after_many_deletes_still_exact(self, points_2d, l2_metric):
        index = GTS.build(points_2d, l2_metric, node_capacity=8)
        for victim in range(0, 50):
            index.delete(victim)
        remaining = points_2d[50:]
        got = index.knn_query(points_2d[60], 5)
        expected = brute_force_knn(remaining, l2_metric, points_2d[60], 5)
        np.testing.assert_allclose(
            sorted(d for _, d in got), sorted(d for _, d in expected), atol=1e-9
        )


class TestBatchUpdatesAndRebuild:
    def test_manual_rebuild_clears_tombstones_and_cache(self, index):
        index.delete(0)
        index.insert(np.array([77.0, 77.0]))
        index.rebuild()
        assert index.cache_size == 0
        assert index.num_indexed == index.num_objects

    def test_batch_update_insert_and_delete(self, index, points_2d):
        inserts = [np.array([200.0 + i, 0.0]) for i in range(5)]
        index.batch_update(inserts=inserts, deletes=[0, 1, 2])
        assert index.num_objects == len(points_2d) - 3 + 5
        hits = index.range_query(np.array([200.0, 0.0]), 0.01)
        assert len(hits) == 1

    def test_batch_update_unknown_delete_rejected(self, index):
        with pytest.raises(UpdateError):
            index.batch_update(deletes=[123_456])

    def test_rebuild_count_increments(self, index):
        assert index.rebuild_count == 0
        index.rebuild()
        assert index.rebuild_count == 1

    def test_queries_exact_after_batch_update(self, index, points_2d, l2_metric):
        index.batch_update(deletes=list(range(10)))
        remaining = points_2d[10:]
        got = index.range_query(points_2d[20], 1.0)
        expected = brute_force_range(remaining, l2_metric, points_2d[20], 1.0)
        # ids are preserved, so shift the expected ids by the deleted prefix
        expected_ids = {o + 10 for o, _ in expected}
        assert {o for o, _ in got} == expected_ids

    def test_device_memory_stable_across_rebuilds(self, points_2d, l2_metric):
        device = Device(DeviceSpec())
        index = GTS.build(points_2d, l2_metric, device=device)
        used_after_build = device.used_bytes
        for _ in range(3):
            index.rebuild()
        assert device.used_bytes == pytest.approx(used_after_build, rel=0.05)


class TestUpdateAccounting:
    """Failed updates must not advance the simulated clock (PR 2 fixes)."""

    def test_failed_delete_is_stats_neutral(self, index):
        before = index.device.stats.copy()
        with pytest.raises(UpdateError):
            index.delete(10_000)
        with pytest.raises(UpdateError):
            index.delete(-3)
        after = index.device.stats
        assert after.sim_time == before.sim_time
        assert after.kernel_launches == before.kernel_launches
        assert after.total_ops == before.total_ops

    def test_double_delete_is_stats_neutral(self, index):
        index.delete(4)
        before = index.device.stats.copy()
        with pytest.raises(UpdateError):
            index.delete(4)
        after = index.device.stats
        assert after.sim_time == before.sim_time
        assert after.kernel_launches == before.kernel_launches

    def test_successful_delete_still_charges_one_kernel(self, index):
        before = index.device.stats.copy()
        index.delete(4)
        after = index.device.stats
        assert after.kernel_launches == before.kernel_launches + 1
        assert after.sim_time > before.sim_time

    def test_batch_update_rejects_tombstoned_ids(self, index):
        index.delete(6)
        with pytest.raises(UpdateError):
            index.batch_update(deletes=[6])
        # a mixed batch with one bad id is rejected atomically
        before_rebuilds = index.rebuild_count
        with pytest.raises(UpdateError):
            index.batch_update(deletes=[7, 6])
        assert index.rebuild_count == before_rebuilds
        assert index.is_live(7)

    def test_get_object_covers_cached_and_tombstoned_ids(self, index, points_2d):
        new_id = index.insert(np.array([321.0, -321.0]))
        np.testing.assert_array_equal(index.get_object(new_id), [321.0, -321.0])
        index.delete(8)
        # tombstoned objects stay addressable until a rebuild drops them
        np.testing.assert_array_equal(index.get_object(8), points_2d[8])
        with pytest.raises(IndexError_):
            index.get_object(10_000_000)


def _fifty_points(tiered):
    """A 2-d L2 index over 50 points, resident or paged through a small pool."""
    points = np.random.default_rng(4).normal(size=(50, 2))
    tier = TierConfig(memory_budget_bytes=256, block_bytes=64) if tiered else None
    return GTS.build(points, EuclideanDistance(), node_capacity=4, seed=2, tier=tier)


def _observable_state(index):
    """Live ids, store length, tombstones, cache, device and pager counters."""
    return (
        [i for i in range(len(index._objects)) if index.is_live(i)],
        len(index._objects),
        set(index._tombstones),
        index._cache.object_ids(),
        index.device.stats.as_dict(),
        None if index.pager is None else index.pager.stats.as_dict(),
    )


@pytest.mark.parametrize("tiered", [False, True], ids=["resident", "tiered"])
class TestRejectedUpdatesChangeNothing:
    """An update the store cannot take is rejected before any state changes."""

    def test_update_with_a_wrong_shape_keeps_the_old_version(self, tiered):
        index = _fifty_points(tiered)
        index.insert([0.5, 0.5])
        before = _observable_state(index)
        with pytest.raises(IndexError_):
            index.update(0, [1.0, 2.0, 3.0])
        assert _observable_state(index) == before
        assert index.is_live(0) and index.num_objects == 51
        assert index.insert([0.25, 0.25]) == 51
        index.close()

    def test_batch_update_with_a_bad_insert_leaves_no_partial_state(self, tiered):
        index = _fifty_points(tiered)
        index.insert([0.5, 0.5])
        before = _observable_state(index)
        with pytest.raises(IndexError_):
            index.batch_update(inserts=[[0.1, 0.2], [1.0, 2.0, 3.0]], deletes=[3, 4])
        assert _observable_state(index) == before
        assert index.is_live(3) and index.is_live(4)
        # no orphan row took an id
        assert index.insert([0.25, 0.25]) == 51
        index.close()


class TestQueryParamValidation:
    """Malformed radii/k raise QueryError on every path (PR 2 fixes)."""

    def test_wrong_length_radii_rejected(self, index, points_2d):
        queries = [points_2d[0], points_2d[1], points_2d[2]]
        with pytest.raises(QueryError, match="radii"):
            index.range_query_batch(queries, [0.5, 0.5])
        with pytest.raises(QueryError, match=r"\(3,\)"):
            index.range_query_batch(queries, [0.5] * 4)

    def test_wrong_length_radii_rejected_with_cached_entries(self, index, points_2d):
        # the cache-empty fast path used to be the only validated one
        index.insert(np.array([5.0, 5.0]))
        assert index.cache_size > 0
        with pytest.raises(QueryError, match="radii"):
            index.range_query_batch([points_2d[0], points_2d[1]], [0.5, 0.5, 0.5])

    def test_non_numeric_radii_rejected(self, index, points_2d):
        with pytest.raises(QueryError, match="radii"):
            index.range_query_batch([points_2d[0]], "wide")

    def test_wrong_length_k_rejected(self, index, points_2d):
        queries = [points_2d[0], points_2d[1], points_2d[2]]
        with pytest.raises(QueryError, match="k must"):
            index.knn_query_batch(queries, [3, 3])

    def test_non_numeric_k_rejected(self, index, points_2d):
        with pytest.raises(QueryError, match="k must"):
            index.knn_query_batch([points_2d[0]], "five")

    def test_scalar_and_per_query_params_still_accepted(self, index, points_2d):
        queries = [points_2d[0], points_2d[1]]
        assert len(index.range_query_batch(queries, 0.5)) == 2
        assert len(index.range_query_batch(queries, [0.5, 0.7])) == 2
        assert len(index.knn_query_batch(queries, 3)) == 2
        assert len(index.knn_query_batch(queries, [3, 5])) == 2
        # +inf is a radius; integral floats and NumPy integers are a k
        assert len(index.range_query(points_2d[0], float("inf"))) == len(points_2d)
        by_int = index.knn_query(points_2d[0], 3)
        assert index.knn_query(points_2d[0], 3.0) == index.knn_query(points_2d[0], np.int32(3)) == by_int


def _gts_or_sharded(kind, points):
    if kind == "gts":
        return GTS.build(points, EuclideanDistance(), node_capacity=8, seed=5)
    return ShardedGTS.build(points, EuclideanDistance(), num_shards=2, node_capacity=8, seed=5)


def _all_stats(index):
    devices = [index.device] + [shard.device for shard in getattr(index, "shards", [])]
    return [device.stats.copy() for device in devices]


@pytest.mark.parametrize("kind", ["gts", "sharded"])
@pytest.mark.parametrize("via_batch", [False, True], ids=["direct", "execute_batch"])
class TestInvalidScalarParams:
    """NaN radii and fractional ``k`` are rejected before any device charge."""

    def _rejects(self, index, op, via_batch):
        before = _all_stats(index)
        size = len(index)
        with pytest.raises(QueryError):
            if via_batch:
                # an insert ahead of the bad query must not run either
                index.execute_batch([("insert", np.zeros(2)), op])
            elif op[0] == "range":
                index.range_query(op[1], op[2])
            else:
                index.knn_query(op[1], op[2])
        assert len(index) == size
        assert _all_stats(index) == before

    def test_nan_radius_rejected(self, kind, via_batch, points_2d):
        index = _gts_or_sharded(kind, points_2d)
        self._rejects(index, ("range", points_2d[0], float("nan")), via_batch)
        self._rejects(index, ("range", points_2d[0], np.float32("nan")), via_batch)

    def test_non_integral_k_rejected(self, kind, via_batch, points_2d):
        index = _gts_or_sharded(kind, points_2d)
        for bad_k in (2.7, 0.5, float("inf"), float("nan")):
            self._rejects(index, ("knn", points_2d[0], bad_k), via_batch)


def _array_path_param(kind, value):
    """A batch operation's radius or ``k`` as the array checks convert it."""
    from repro.core.searchcommon import _ks_array, _radii_array

    try:
        if kind == "range":
            return float(_radii_array(value, 1)[0])
        return int(_ks_array(value, 1)[0])
    except (QueryError, TypeError, ValueError) as exc:
        raise QueryError(f"batch operation 0 ({kind!r}): {exc}") from exc


_SCALAR_PARAMS = [
    0, 1, 8, 2 ** 53, 2 ** 53 + 1, 2 ** 60, -1,
    0.0, -0.0, 0.5, 2.7, 8.0, -0.5, 1e300, 2.0 ** 60,
    float("nan"), float("inf"), float("-inf"),
    True, False,
    np.float64(0.5), np.float32(0.25), np.int64(3), np.int32(-2), np.float64("nan"),
    "0.5", "3", [0.5], [3], (2,), None,
]


@pytest.mark.parametrize("kind", ["range", "knn"])
@pytest.mark.parametrize("value", _SCALAR_PARAMS, ids=repr)
def test_batch_param_check_matches_the_array_validators(kind, value):
    """The scalar fast path accepts, converts and rejects exactly as before."""
    from repro.core.gts import _convert_op

    op = (kind, np.zeros(2), value)
    try:
        expected = _array_path_param(kind, value)
    except QueryError as exc:
        with pytest.raises(QueryError) as raised:
            _convert_op(0, op)
        assert str(raised.value) == str(exc)
        return
    got = _convert_op(0, op)
    assert type(got) is type(expected)
    assert repr(got) == repr(expected)  # keeps the sign of -0.0


@pytest.mark.parametrize("kind", ["range", "knn"])
@pytest.mark.parametrize("value", _SCALAR_PARAMS, ids=repr)
def test_batch_param_broadcast_matches_the_array_check(kind, value):
    """``query_radii``/``query_ks`` give a shared plain number the array check's result."""
    from repro.core import searchcommon

    batch = searchcommon.query_radii if kind == "range" else searchcommon.query_ks
    array = searchcommon._radii_array if kind == "range" else searchcommon._ks_array
    try:
        expected = array(value, 3)
    except QueryError as exc:
        with pytest.raises(QueryError) as raised:
            batch(value, 3)
        assert str(raised.value) == str(exc)
        return
    got = batch(value, 3)
    assert got.dtype == expected.dtype and got.flags.writeable
    assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))
