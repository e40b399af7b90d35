"""Columnar object store + engine-equivalence tests (DESIGN.md §8).

Two families of guarantees:

* :class:`~repro.core.objectstore.ColumnarStore` behaves exactly like the
  historical list store (ids, appends, persistence, tier blocks) while
  keeping vector data one contiguous matrix;
* the fused segmented query engine is **observably identical** to the
  historical per-query evaluation: byte-identical MRQ/MkNNQ answers and
  identical simulated ``ExecutionStats`` (kernel counts, simulated seconds,
  pool peaks, transfer flows) on resident, tiered, and sharded indexes.
  The "before" side of the comparison is the generic per-query fallback
  path (``Metric._pairwise_segmented`` + list store), which is the
  pre-refactor evaluation strategy.  The resident and sharded cases also
  check that the fast side ran the certified ``distance_bounds`` filter,
  and the tiered case that it did not.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.gts as gts_module
from repro import GTS
from repro.core.objectstore import ColumnarStore, ListStore, make_object_store
from repro.exceptions import IndexError_
from repro.gpusim import Device, DeviceSpec
from repro.metrics import AngularDistance, EuclideanDistance
from repro.metrics.base import Metric
from repro.metrics.vector import _VectorMetric
from repro.shard import ShardedGTS
from repro.tier import TierConfig


def _stats_fields(stats):
    """ExecutionStats as a comparable dict, excluding wall-clock host_time."""
    return {
        "kernel_launches": stats.kernel_launches,
        "parallel_steps": stats.parallel_steps,
        "total_ops": stats.total_ops,
        "sorted_elements": stats.sorted_elements,
        "bytes_to_device": stats.bytes_to_device,
        "bytes_to_host": stats.bytes_to_host,
        "allocations": stats.allocations,
        "frees": stats.frees,
        "peak_memory_bytes": stats.peak_memory_bytes,
        "sim_time": stats.sim_time,
        "pool_peak_bytes": dict(stats.pool_peak_bytes),
        "transfer_seconds": dict(stats.transfer_seconds),
    }


def _apply_legacy(mp: pytest.MonkeyPatch) -> None:
    """Force the pre-refactor evaluation strategy.

    * ``bulk_load`` keeps a list store (no columnar matrix);
    * every metric answers ``pairwise_segmented`` with the generic
      per-query ``pairwise`` loop (no fused pass, no store digest).
    """
    mp.setattr(
        gts_module, "make_object_store", lambda objs: ListStore(objs[i] for i in range(len(objs)))
    )
    mp.setattr(_VectorMetric, "_pairwise_segmented", Metric._pairwise_segmented)
    mp.setattr(Metric, "store_digest", lambda self, matrix: None)


class TestColumnarStore:
    def test_round_trips_matrix(self, rng):
        data = rng.normal(size=(10, 4))
        store = ColumnarStore(data)
        assert len(store) == 10
        np.testing.assert_array_equal(store.matrix, data)
        np.testing.assert_array_equal(store[3], data[3])
        np.testing.assert_array_equal(store[-1], data[-1])

    def test_copy_on_construction(self, rng):
        data = rng.normal(size=(4, 2))
        store = ColumnarStore(data)
        data[0, 0] = 999.0
        assert store[0][0] != 999.0

    def test_gather_is_contiguous_matrix(self, rng):
        store = ColumnarStore(rng.normal(size=(20, 3)))
        got = store.gather([5, 1, 5, 19])
        assert isinstance(got, np.ndarray) and got.shape == (4, 3)
        np.testing.assert_array_equal(got[0], store[5])

    def test_append_grows_and_preserves_ids(self, rng):
        store = ColumnarStore(rng.normal(size=(3, 2)))
        rows = [store[i].copy() for i in range(3)]
        for i in range(40):
            store.append([float(i), float(-i)])
        assert len(store) == 43
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(store[i], row)
        np.testing.assert_array_equal(store[42], [39.0, -39.0])
        assert store.matrix.flags["C_CONTIGUOUS"]

    def test_append_promotes_dtype_instead_of_truncating(self):
        store = ColumnarStore(np.array([[0, 0], [3, 4], [10, 10]], dtype=np.int64))
        store.append([0.5, 0.5])
        assert store.dtype == np.float64
        np.testing.assert_array_equal(store[3], [0.5, 0.5])
        np.testing.assert_array_equal(store[1], [3.0, 4.0])  # old rows intact
        f32 = ColumnarStore(np.zeros((2, 2), dtype=np.float32))
        f32.append(np.array([0.1, 0.2], dtype=np.float64))  # not float32-exact
        assert f32.dtype == np.float64
        np.testing.assert_array_equal(f32[2], [0.1, 0.2])

    def test_insert_into_int_backed_index_keeps_float_values(self):
        data = np.array([[0, 0], [3, 4], [10, 10], [5, 5], [-2, 7], [8, 1]], dtype=np.int64)
        index = GTS.build(data, EuclideanDistance(), node_capacity=3)
        new_id = index.insert([0.5, 0.5])
        index.rebuild()
        hits = index.range_query(np.array([0.5, 0.5]), 0.01)
        assert hits == [(new_id, 0.0)]
        index.close()

    def test_append_rejects_wrong_shape(self, rng):
        store = ColumnarStore(rng.normal(size=(3, 2)))
        with pytest.raises(IndexError_):
            store.append([1.0, 2.0, 3.0])

    def test_out_of_range_access_rejected(self, rng):
        store = ColumnarStore(rng.normal(size=(3, 2)))
        with pytest.raises(IndexError_):
            store[3]

    def test_metric_digest_cached_and_invalidated(self, rng):
        store = ColumnarStore(rng.normal(size=(6, 4)))
        metric = AngularDistance()
        first = store.metric_digest(metric)
        assert store.metric_digest(metric) is first
        store.append(rng.normal(size=4))
        second = store.metric_digest(metric)
        assert second is not first and len(second) == 7

    def test_metric_digest_extends_with_appended_rows_only(self, rng, monkeypatch):
        store = ColumnarStore(rng.normal(size=(6, 4)))
        metric = AngularDistance()
        store.metric_digest(metric)
        digested = []
        original = metric.store_digest
        monkeypatch.setattr(
            metric, "store_digest", lambda matrix: digested.append(len(matrix)) or original(matrix)
        )
        for batch in (1, 3, 2):
            for _ in range(batch):
                store.append(rng.normal(size=4))
            digest = store.metric_digest(metric)
        assert digested == [1, 3, 2]  # only the new rows were digested
        np.testing.assert_array_equal(digest, original(store.matrix))
        assert digest.tobytes() == original(store.matrix).tobytes()

    def test_metric_digest_dropped_on_dtype_promotion(self, monkeypatch):
        store = ColumnarStore(np.array([[3, 4], [6, 8]], dtype=np.int64))
        metric = AngularDistance()
        store.metric_digest(metric)
        digested = []
        original = metric.store_digest
        monkeypatch.setattr(
            metric, "store_digest", lambda matrix: digested.append(len(matrix)) or original(matrix)
        )
        store.append([0.5, 0.25])
        digest = store.metric_digest(metric)
        assert digested == [3]  # the whole promoted matrix, not an extension
        assert digest.tobytes() == original(store.matrix).tobytes()

    def test_make_object_store_dispatch(self, rng):
        matrix = rng.normal(size=(5, 3))
        assert isinstance(make_object_store(matrix), ColumnarStore)
        assert isinstance(make_object_store([matrix[i] for i in range(5)]), ColumnarStore)
        strings = ["ab", "cd", "efg"]
        assert list(make_object_store(strings)) == strings
        ragged = [np.zeros(2), np.zeros(3)]
        assert isinstance(make_object_store(ragged), ListStore)

    def test_make_object_store_stacks_numeric_lists_and_tuples(self):
        rows = make_object_store([[1.0, 2.5], [3.0, 4.0]])
        assert isinstance(rows, ColumnarStore) and rows.dtype == np.float64
        ints = make_object_store([(1, 2), (3, 4)])
        assert isinstance(ints, ColumnarStore) and ints.dtype == np.int64
        for kept in (
            [[1.0, 2.0], [3.0]],  # ragged
            [["a", "b"], ["c", "d"]],  # strings
            [[True, False], [False, True]],  # booleans, like a bool ndarray
            [[(0.0, 1.0)], [(2.0, 3.0)]],  # point sets
            [[1.0, [2.0]], [3.0, 4.0]],  # ragged below the rows
            [{1, 2}, {3, 4}],  # sets
            [[1.0, 2.0], np.array([3.0, 4.0])],  # mixed row kinds
        ):
            assert isinstance(make_object_store(kept), ListStore)


class TestColumnarIndexBehaviour:
    def test_bulk_load_keeps_vector_data_columnar(self, points_2d):
        index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8)
        assert isinstance(index._objects, ColumnarStore)
        np.testing.assert_array_equal(index.get_object(7), points_2d[7])
        index.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_list_of_lists_build_matches_ndarray_build(self, points_2d, shards):
        """Python rows reach the columnar store: same answers, cache bytes and stats."""

        def run(objects):
            device = Device(DeviceSpec())
            if shards == 1:
                index = GTS.build(objects, EuclideanDistance(), node_capacity=8, seed=3, device=device)
            else:
                index = ShardedGTS.build(
                    objects, EuclideanDistance(), num_shards=shards, node_capacity=8, seed=3
                )
            before = index.device.snapshot()
            loads = [getattr(index, "shard_load_bytes", None)]
            inserted = [index.insert([1.0, 2.0]), index.insert((0.5, -0.25))]
            queries = [points_2d[0], points_2d[17], np.array([1.0, 2.0])]
            answers = [index.range_query_batch(queries, 0.3), index.knn_query_batch(queries, 5)]
            caches = [g._cache.used_bytes(g._objects) for g in getattr(index, "shards", [index])]
            stores = [type(g._objects) for g in getattr(index, "shards", [index])]
            loads.append(getattr(index, "shard_load_bytes", None))
            stats = _stats_fields(index.device.stats.delta_since(before))
            index.close()
            return inserted, answers, caches, stores, stats, loads

        listed = run([[float(x), float(y)] for x, y in points_2d[:200]])
        assert listed == run(points_2d[:200])
        assert set(listed[3]) == {ColumnarStore}
        assert sum(listed[2]) == 2 * 16  # two float64 rows, not 8 B per Python object

    def test_string_data_stays_a_list(self):
        from repro.metrics import EditDistance

        words = ["apple", "apply", "angle", "ample", "maple", "staple"]
        index = GTS.build(words, EditDistance(expected_length=6), node_capacity=3)
        assert isinstance(index._objects, ListStore)
        assert index.get_object(2) == "angle"
        index.close()

    def test_insert_appends_columnar_row(self, points_2d):
        index = GTS.build(points_2d[:100], EuclideanDistance(), node_capacity=8)
        new_id = index.insert(np.array([0.25, -0.75]))
        assert new_id == 100
        np.testing.assert_array_equal(index.get_object(new_id), [0.25, -0.75])
        hits = index.knn_query(np.array([0.25, -0.75]), 1)
        assert hits[0][0] == new_id
        index.rebuild()
        np.testing.assert_array_equal(index.get_object(new_id), [0.25, -0.75])
        index.close()

    def test_persistence_round_trips_columnar_store(self, points_2d, tmp_path):
        index = GTS.build(points_2d[:200], EuclideanDistance(), node_capacity=8, seed=3)
        queries = [points_2d[i] for i in range(6)]
        expected = index.knn_query_batch(queries, 4)
        path = index.save(tmp_path / "columnar.npz")
        loaded = GTS.load(path)
        assert isinstance(loaded._objects, ColumnarStore)
        assert loaded.knn_query_batch(queries, 4) == expected
        index.close()
        loaded.close()

    def test_dtype_promotion_resizes_cached_rows(self, points_2d):
        """A float64 insert into a float32 index widens every cached row."""
        index = GTS.build(points_2d[:100].astype(np.float32), EuclideanDistance(), node_capacity=8)
        index.insert([1.0, 2.0])  # exact in float32: 8 B
        assert index._cache.used_bytes(index._objects) == 8
        index.insert([0.1, 2.0])  # promotes the store to float64
        assert index._objects.dtype == np.float64
        assert index._cache.used_bytes(index._objects) == 2 * 16
        index.insert([0.3, 2.0])
        assert index._cache.used_bytes(index._objects) == 3 * 16
        index.close()

    def test_dtype_promotion_resizes_shard_loads(self, points_2d):
        """Each shard's load is its live rows at its own store's row size."""
        index = ShardedGTS.build(
            points_2d[:100].astype(np.float32), EuclideanDistance(), num_shards=2, node_capacity=8
        )
        index.delete(3)
        for row in ([1.0, 2.0], [0.1, 2.0], [0.3, 2.0], [0.7, 1.0]):
            index.insert(row)
            for sid, shard in enumerate(index.shards):
                row_nbytes = shard._objects.row_nbytes
                assert index.shard_load_bytes[sid] == shard.num_objects * row_nbytes
                assert shard._cache.used_bytes(shard._objects) == len(shard._cache) * row_nbytes
        assert {shard._objects.dtype for shard in index.shards} == {np.dtype(np.float64)}
        index.batch_update(inserts=[[0.2, 0.9]], deletes=[5])
        for sid, shard in enumerate(index.shards):
            assert index.shard_load_bytes[sid] == shard.num_objects * 16
        index.close()

    def test_dtype_promotion_in_batch_update_resizes_shard_loads(self, points_2d):
        """A bulk update that promotes one shard's store re-sizes that shard's load only."""
        index = ShardedGTS.build(
            points_2d[:100].astype(np.float32), EuclideanDistance(), num_shards=2, node_capacity=8
        )
        # round-robin: global id 100 lands on shard 0 (exact in float32),
        # id 101 on shard 1 (promotes it)
        index.batch_update(inserts=[[1.0, 2.0], [0.1, 2.0]], deletes=[4])
        assert [shard._objects.dtype for shard in index.shards] == [np.float32, np.float64]
        assert index.shard_load_bytes == [
            shard.num_objects * shard._objects.row_nbytes for shard in index.shards
        ]
        assert index.shard_load_bytes[1] == 51 * 16
        index.close()

    def test_tiered_store_wraps_columnar(self, points_2d):
        index = GTS.build(
            points_2d[:300],
            EuclideanDistance(),
            node_capacity=8,
            tier=TierConfig(memory_budget_bytes=2048, block_bytes=256),
        )
        assert isinstance(index._objects, ColumnarStore)
        assert index.pager.store.raw is index._objects
        resident = GTS.build(points_2d[:300], EuclideanDistance(), node_capacity=8)
        queries = [points_2d[i] for i in range(10)]
        assert index.knn_query_batch(queries, 5) == resident.knn_query_batch(queries, 5)
        index.close()
        resident.close()


def _run_workload(index, queries, radius, k):
    before = index.device.snapshot()
    mrq = index.range_query_batch(queries, radius)
    knn = index.knn_query_batch(queries, k)
    index.delete(5)
    mrq2 = index.range_query_batch(queries[:4], radius)
    knn2 = index.knn_query_batch(queries[:4], k)
    delta = index.device.stats.delta_since(before)
    return (mrq, knn, mrq2, knn2), _stats_fields(delta)


class TestEngineEquivalence:
    """Fused engine vs the pre-refactor per-query strategy: byte-identical."""

    @pytest.fixture
    def vector_data(self, rng):
        basis = rng.normal(size=(4, 24))
        codes = rng.normal(size=(400, 4))
        data = codes @ basis + 0.1 * rng.normal(size=(400, 24))
        return data / np.linalg.norm(data, axis=1, keepdims=True)

    def _build(self, data, **kwargs):
        return GTS.build(
            data, AngularDistance(), node_capacity=8, seed=11,
            device=Device(DeviceSpec()), **kwargs
        )

    def _both_strategies(self, run):
        """Run a workload on the legacy strategy and on the fast path.

        Also returns how often the fast path called the angular metric's
        ``distance_bounds`` (the certified verification filter).
        """
        with pytest.MonkeyPatch.context() as mp:
            _apply_legacy(mp)
            legacy = run(expect_columnar=False)
        with pytest.MonkeyPatch.context() as mp:
            calls = []
            original = AngularDistance.distance_bounds
            mp.setattr(
                AngularDistance,
                "distance_bounds",
                lambda self, *args: calls.append(1) or original(self, *args),
            )
            fast = run(expect_columnar=True)
        return legacy, fast, len(calls)

    def test_resident_answers_and_stats_identical(self, vector_data):
        queries = [vector_data[i] for i in range(16)]

        def run(expect_columnar):
            index = self._build(vector_data)
            assert isinstance(index._objects, ColumnarStore) == expect_columnar
            result = _run_workload(index, queries, 0.2, 5)
            index.close()
            return result

        legacy, fast, bound_calls = self._both_strategies(run)
        assert bound_calls > 0  # the certified filter ran
        assert fast[0] == legacy[0]  # byte-identical MRQ/MkNNQ answers
        assert fast[1] == legacy[1]  # identical ExecutionStats

    def test_tiered_answers_and_stats_identical(self, vector_data):
        from repro.core.construction import objects_nbytes

        budget = max(2048, objects_nbytes(vector_data) // 4)  # cap 0.25
        queries = [vector_data[i] for i in range(16)]

        def run(expect_columnar):
            index = self._build(
                vector_data, tier=TierConfig(memory_budget_bytes=budget, block_bytes=512)
            )
            answers, stats = _run_workload(index, queries, 0.2, 5)
            pager = dict(
                hits=index.pager.stats.hits,
                misses=index.pager.stats.misses,
                evictions=index.pager.stats.evictions,
                bytes_h2d=index.pager.stats.bytes_h2d,
            )
            index.close()
            return answers, stats, pager

        legacy, fast, bound_calls = self._both_strategies(run)
        assert bound_calls > 0  # the certified filter runs on tiered stores too
        assert fast == legacy  # answers, ExecutionStats, and pager traffic

    def test_sharded_answers_and_stats_identical(self, vector_data):
        queries = [vector_data[i] for i in range(16)]

        def run(expect_columnar):
            index = ShardedGTS.build(
                vector_data, AngularDistance(), num_shards=2, node_capacity=8, seed=11
            )
            before = index.device.snapshot()
            mrq = index.range_query_batch(queries, 0.2)
            knn = index.knn_query_batch(queries, 5)
            delta = index.device.stats.delta_since(before)
            index.close()
            return (mrq, knn), _stats_fields(delta)

        legacy, fast, bound_calls = self._both_strategies(run)
        assert bound_calls > 0  # the certified filter ran on the shards
        assert fast == legacy
