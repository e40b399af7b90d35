"""Tests for index persistence (repro.core.persistence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EditDistance, EuclideanDistance, ManhattanDistance
from repro.core import INDEX_FORMAT_VERSION, load_index, save_index
from repro.exceptions import IndexError_, MetricError
from repro.gpusim import Device, DeviceSpec
from repro.metrics.base import Metric


@pytest.fixture
def vector_index(points_2d) -> GTS:
    return GTS.build(points_2d, EuclideanDistance(), node_capacity=8, seed=5)


@pytest.fixture
def string_index(word_list) -> GTS:
    return GTS.build(word_list, EditDistance(), node_capacity=8, seed=5)


class TestRoundTrip:
    def test_vector_round_trip_queries_match(self, vector_index, points_2d, tmp_path):
        path = vector_index.save(tmp_path / "index.npz")
        loaded = GTS.load(path)
        queries = [points_2d[i] + 0.01 for i in (0, 7, 99)]
        assert loaded.knn_query_batch(queries, 5) == vector_index.knn_query_batch(queries, 5)
        assert loaded.range_query_batch(queries, 0.8) == vector_index.range_query_batch(queries, 0.8)

    def test_string_round_trip_queries_match(self, string_index, tmp_path):
        path = string_index.save(tmp_path / "words.npz")
        loaded = GTS.load(path)
        assert loaded.knn_query("metric", 4) == string_index.knn_query("metric", 4)
        assert loaded.range_query("pivot", 2) == string_index.range_query("pivot", 2)

    def test_round_trip_preserves_configuration(self, vector_index, tmp_path):
        path = vector_index.save(tmp_path / "index.npz")
        loaded = GTS.load(path)
        assert loaded.node_capacity == vector_index.node_capacity
        assert loaded.height == vector_index.height
        assert loaded.num_objects == vector_index.num_objects
        assert loaded.pivot_strategy == vector_index.pivot_strategy
        assert loaded.prune_mode == vector_index.prune_mode
        assert loaded.storage_bytes == vector_index.storage_bytes

    def test_round_trip_preserves_tree_structure(self, vector_index, tmp_path):
        path = vector_index.save(tmp_path / "index.npz")
        loaded = GTS.load(path)
        np.testing.assert_array_equal(loaded.tree.pivot, vector_index.tree.pivot)
        np.testing.assert_array_equal(loaded.tree.obj_ids, vector_index.tree.obj_ids)
        np.testing.assert_allclose(loaded.tree.obj_dis, vector_index.tree.obj_dis)
        loaded.tree.check_invariants()

    def test_round_trip_preserves_tombstones(self, vector_index, points_2d, tmp_path):
        vector_index.delete(3)
        vector_index.delete(11)
        path = vector_index.save(tmp_path / "index.npz")
        loaded = GTS.load(path)
        assert loaded.num_objects == vector_index.num_objects
        got = loaded.range_query(points_2d[3], 1e-9)
        assert 3 not in {o for o, _ in got}

    def test_round_trip_preserves_cache(self, vector_index, tmp_path):
        new_id = vector_index.insert(np.array([123.0, 456.0]))
        assert vector_index.cache_size > 0
        path = vector_index.save(tmp_path / "index.npz")
        loaded = GTS.load(path)
        assert loaded.cache_size == vector_index.cache_size
        got = loaded.knn_query(np.array([123.0, 456.0]), 1)
        assert got[0][0] == new_id
        assert got[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_loaded_index_supports_updates(self, vector_index, points_2d, tmp_path):
        path = vector_index.save(tmp_path / "index.npz")
        loaded = GTS.load(path)
        obj_id = loaded.insert(np.array([77.0, -77.0]))
        assert loaded.knn_query(np.array([77.0, -77.0]), 1)[0][0] == obj_id
        loaded.delete(0)
        assert 0 not in {o for o, _ in loaded.range_query(points_2d[0], 1e-9)}
        loaded.rebuild()
        loaded.tree.check_invariants()

    def test_save_returns_existing_path(self, vector_index, tmp_path):
        path = vector_index.save(tmp_path / "my_index.gts")
        assert path.exists()
        assert GTS.load(path).num_objects == vector_index.num_objects


class TestSeedRoundTrip:
    def test_seed_survives_save_load(self, points_2d, tmp_path):
        index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8, seed=23)
        loaded = GTS.load(index.save(tmp_path / "index.npz"))
        assert loaded.seed == 23

    def test_post_load_rebuild_matches_never_saved_index(self, points_2d, tmp_path):
        """save -> load -> insert-to-overflow builds the identical tree.

        The construction RNG is consumed by every build, so this only holds
        when the archive round-trips the generator *state*, not just the
        seed.
        """
        index = GTS.build(
            points_2d, EuclideanDistance(), node_capacity=8, seed=23,
            cache_capacity_bytes=64,
        )
        loaded = GTS.load(index.save(tmp_path / "index.npz"))
        rng = np.random.default_rng(99)
        while index.rebuild_count == 0:
            obj = rng.normal(size=2)
            index.insert(obj)
            loaded.insert(obj)
        assert loaded.rebuild_count == index.rebuild_count == 1
        np.testing.assert_array_equal(loaded.tree.pivot, index.tree.pivot)
        np.testing.assert_array_equal(loaded.tree.obj_ids, index.tree.obj_ids)
        np.testing.assert_allclose(loaded.tree.obj_dis, index.tree.obj_dis)
        query = points_2d[0] + 0.01
        assert loaded.knn_query(query, 5) == index.knn_query(query, 5)

    def test_version_1_archives_still_load(self, vector_index, tmp_path):
        """A pre-seed archive loads fine and falls back to the default seed."""
        path = vector_index.save(tmp_path / "index.npz")
        with np.load(path, allow_pickle=True) as archive:
            arrays = {k: archive[k] for k in archive.files}
        import json

        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["format_version"] = 1
        del meta["seed"]
        del meta["rng_state"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        v1 = tmp_path / "v1.npz"
        with open(v1, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        loaded = load_index(v1)
        assert loaded.seed == 17
        query = np.asarray(loaded.get_object(0)) + 0.01
        assert loaded.knn_query(query, 3) == vector_index.knn_query(query, 3)


class TestDeviceAccounting:
    def test_loaded_index_occupies_device_memory(self, vector_index, tmp_path):
        path = vector_index.save(tmp_path / "index.npz")
        device = Device(DeviceSpec())
        before = device.available_bytes
        loaded = GTS.load(path, device=device)
        assert device.available_bytes < before
        loaded.close()
        assert device.available_bytes == before

    def test_loaded_index_registers_the_pools_a_build_does(self, points_2d, tmp_path):
        built = GTS.build(
            points_2d, EuclideanDistance(), node_capacity=8, seed=5, device=Device(DeviceSpec())
        )
        path = built.save(tmp_path / "index.npz")
        loaded = GTS.load(path, device=Device(DeviceSpec()))
        # the indexed objects are device-resident too, not only the tree;
        # available_bytes sizes the query engine's level-pair groups
        assert set(built.device.stats.pool_peak_bytes) >= {"objects", "tree"}
        assert loaded.device.stats.pool_peak_bytes == built.device.stats.pool_peak_bytes
        assert loaded.device.available_bytes == built.device.available_bytes

    def test_explicit_metric_is_used(self, points_2d, tmp_path):
        index = GTS.build(points_2d, ManhattanDistance(), node_capacity=8)
        path = index.save(tmp_path / "index.npz")
        metric = ManhattanDistance()
        loaded = GTS.load(path, metric=metric)
        assert loaded.metric is metric


class TestErrors:
    def test_unbuilt_index_rejected(self):
        index = GTS(EuclideanDistance())
        with pytest.raises(IndexError_):
            save_index(index, "/tmp/never-written.npz")

    def test_non_index_rejected(self, tmp_path):
        with pytest.raises(IndexError_):
            save_index(object(), tmp_path / "x.npz")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IndexError_):
            load_index(tmp_path / "does-not-exist.npz")

    def test_unknown_version_rejected(self, vector_index, tmp_path):
        path = vector_index.save(tmp_path / "index.npz")
        with np.load(path, allow_pickle=True) as archive:
            arrays = {k: archive[k] for k in archive.files}
        import json

        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["format_version"] = INDEX_FORMAT_VERSION + 999
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(IndexError_):
            load_index(bad)

    def test_unregistered_metric_requires_explicit_metric(self, points_2d, tmp_path):
        class CustomMetric(Metric):
            name = "custom-l2"
            unit_cost = 1.0

            def _distance(self, a, b) -> float:
                return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))

        metric = CustomMetric()
        index = GTS.build(points_2d, metric, node_capacity=8)
        path = index.save(tmp_path / "custom.npz")
        with pytest.raises(MetricError):
            load_index(path)
        loaded = load_index(path, metric=CustomMetric())
        assert loaded.knn_query(points_2d[0], 3) == index.knn_query(points_2d[0], 3)
