"""Tests for the fused segmented distance kernels (Metric.pairwise_segmented).

The segmented call is the workhorse of the batch query engine, so its
contract is strict: for *every* registered metric, evaluating per-query
segments in one call must be **bitwise identical** to the historical
per-query ``pairwise`` evaluation — regardless of which host strategy
(fused broadcast pass, per-segment loop, store-digest reuse) answers it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MetricError
from repro.metrics import get_metric
from repro.metrics.base import Metric
from repro.metrics.registry import available_metrics
from repro.metrics.vector import AngularDistance, EuclideanDistance, _VectorMetric


def _objects_for(metric, rng, count):
    """Synthetic objects in the metric's domain."""
    if metric.supports_vectors:
        return [rng.normal(size=12) for _ in range(count)]
    name = metric.name
    if name == "hamming":
        alphabet = np.array(list("acgt"))
        return ["".join(rng.choice(alphabet, size=9)) for _ in range(count)]
    if name == "edit-distance":
        alphabet = np.array(list("abcdef"))
        return [
            "".join(rng.choice(alphabet, size=rng.integers(3, 10)))
            for _ in range(count)
        ]
    if name == "jaccard":
        return [
            frozenset(rng.choice(30, size=rng.integers(1, 8), replace=False).tolist())
            for _ in range(count)
        ]
    if name.startswith("hausdorff"):
        return [rng.normal(size=(rng.integers(2, 5), 3)) for _ in range(count)]
    raise AssertionError(f"no object generator for metric {name!r}")


def _segment_case(metric, rng, num_queries=7, max_segment=9):
    queries = _objects_for(metric, rng, num_queries)
    sizes = [int(rng.integers(0, max_segment + 1)) for _ in range(num_queries)]
    if not any(sizes):
        sizes[0] = 3
    objects = _objects_for(metric, rng, sum(sizes))
    boundaries = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return queries, objects, boundaries


@pytest.mark.parametrize("name", available_metrics())
class TestSegmentedEqualsPairwise:
    def test_bitwise_equal_to_per_query_pairwise(self, name):
        metric = get_metric(name) if name != "minkowski" else get_metric(name, p=3)
        rng = np.random.default_rng(sum(map(ord, name)))
        queries, objects, boundaries = _segment_case(metric, rng)
        fused = metric.pairwise_segmented(queries, objects, boundaries)
        expected = np.concatenate(
            [
                metric.pairwise(queries[qi], objects[boundaries[qi] : boundaries[qi + 1]])
                for qi in range(len(queries))
            ]
        )
        np.testing.assert_array_equal(fused, expected)

    def test_counts_one_call_covering_all_pairs(self, name):
        metric = get_metric(name) if name != "minkowski" else get_metric(name, p=3)
        rng = np.random.default_rng(5)
        queries, objects, boundaries = _segment_case(metric, rng)
        metric.reset_counter()
        metric.pairwise_segmented(queries, objects, boundaries)
        assert metric.pair_count == len(objects)


class TestSegmentedValidation:
    def test_boundary_length_must_match_queries(self):
        m = EuclideanDistance()
        with pytest.raises(MetricError):
            m.pairwise_segmented([[0.0, 0.0]], [[1.0, 1.0]], [0, 1, 1])

    def test_boundaries_must_span_objects(self):
        m = EuclideanDistance()
        with pytest.raises(MetricError):
            m.pairwise_segmented([[0.0, 0.0]], [[1.0, 1.0], [2.0, 2.0]], [0, 1])

    def test_boundaries_must_be_monotone(self):
        m = EuclideanDistance()
        with pytest.raises(MetricError):
            m.pairwise_segmented(
                [[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]], [0, 2, 2][::-1]
            )

    def test_empty_batch_returns_empty(self):
        m = EuclideanDistance()
        out = m.pairwise_segmented([], [], [0])
        assert out.shape == (0,)

    def test_empty_segments_are_skipped(self):
        m = EuclideanDistance()
        out = m.pairwise_segmented(
            [[0.0, 0.0], [1.0, 0.0]], [[3.0, 4.0]], np.array([0, 0, 1])
        )
        np.testing.assert_allclose(out, [np.hypot(2.0, 4.0)])


class TestStrategyEquivalence:
    """Fused pass, per-segment loop, and digest reuse agree bit for bit."""

    @pytest.mark.parametrize("metric", [EuclideanDistance(), AngularDistance()])
    def test_fused_equals_segment_loop(self, metric):
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(6, 20))
        sizes = [0, 3, 17, 1, 400, 2]
        objects = rng.normal(size=(sum(sizes), 20))
        boundaries = np.concatenate(([0], np.cumsum(sizes)))
        fused = metric._fused_segmented(queries, objects, boundaries)
        looped = metric._segment_loop(queries, objects, boundaries, None)
        np.testing.assert_array_equal(fused, looped)

    def test_angular_digest_matches_recomputation(self):
        metric = AngularDistance()
        rng = np.random.default_rng(13)
        queries = rng.normal(size=(4, 16))
        objects = rng.normal(size=(40, 16))
        boundaries = np.array([0, 10, 10, 25, 40])
        digest = metric.store_digest(objects)
        np.testing.assert_array_equal(
            digest, np.linalg.norm(objects, axis=-1)
        )
        plain = metric.pairwise_segmented(queries, objects, boundaries)
        with_digest = metric.pairwise_segmented(
            queries, objects, boundaries, object_digest=digest
        )
        np.testing.assert_array_equal(plain, with_digest)
        fused = metric._fused_segmented(queries, objects, boundaries, digest)
        looped = metric._segment_loop(queries, objects, boundaries, digest)
        np.testing.assert_array_equal(fused, looped)
        np.testing.assert_array_equal(fused, plain)

    def test_dispatch_threshold_does_not_change_bits(self):
        rng = np.random.default_rng(17)
        queries = rng.normal(size=(5, 30))
        sizes = [200, 1, 50, 9, 130]
        objects = rng.normal(size=(sum(sizes), 30))
        boundaries = np.concatenate(([0], np.cumsum(sizes)))
        small, large = EuclideanDistance(), EuclideanDistance()
        small.fused_segment_elements = 1  # force the per-segment loop
        large.fused_segment_elements = 10**9  # force the fused pass
        np.testing.assert_array_equal(
            small.pairwise_segmented(queries, objects, boundaries),
            large.pairwise_segmented(queries, objects, boundaries),
        )

    def test_generic_fallback_matches_vector_override(self):
        metric = EuclideanDistance()
        rng = np.random.default_rng(23)
        queries = rng.normal(size=(6, 8))
        sizes = [4, 0, 12, 7, 1, 90]
        objects = rng.normal(size=(sum(sizes), 8))
        boundaries = np.concatenate(([0], np.cumsum(sizes)))
        fast = metric.pairwise_segmented(queries, objects, boundaries)
        generic = Metric._pairwise_segmented(metric, queries, objects, boundaries)
        np.testing.assert_array_equal(fast, np.asarray(generic))

    def test_vector_metric_observes_dimension(self):
        metric = EuclideanDistance()
        rng = np.random.default_rng(29)
        queries = rng.normal(size=(2, 44))
        objects = rng.normal(size=(6, 44))
        metric.pairwise_segmented(queries, objects, [0, 3, 6])
        assert metric.unit_cost == pytest.approx(_VectorMetric.ops_per_dimension * 44)


class TestSegmentedDistanceKernel:
    """The gpusim primitive pairs the fused pass with its device charge."""

    def test_result_and_accounting(self):
        from repro.gpusim import Device, DeviceSpec
        from repro.gpusim.kernels import segmented_distance_kernel

        metric = EuclideanDistance()
        device = Device(DeviceSpec())
        rng = np.random.default_rng(31)
        queries = rng.normal(size=(3, 5))
        objects = rng.normal(size=(10, 5))
        boundaries = np.array([0, 4, 4, 10])
        before = device.snapshot()
        dists = segmented_distance_kernel(device, metric, queries, objects, boundaries)
        delta = device.stats.delta_since(before)
        np.testing.assert_array_equal(
            dists, metric.pairwise_segmented(queries, objects, boundaries)
        )
        assert delta.kernel_launches == 1
        assert delta.total_ops == pytest.approx(len(objects) * metric.unit_cost)


class TestStoreReader:
    """``segmented_distances``: the one reader of stored rows, chunked on the host."""

    SIZES = [3, 0, 25, 0, 0, 7, 1, 0]  # 25 rows exceed a 4-row chunk budget

    def _case(self, rng):
        from repro.core.objectstore import make_object_store

        store = make_object_store(rng.normal(size=(60, 4)))
        boundaries = np.concatenate(([0], np.cumsum(self.SIZES)))
        obj_ids = rng.integers(0, 60, size=int(boundaries[-1]))
        queries = rng.normal(size=(len(self.SIZES), 4))
        return store, queries, boundaries, obj_ids

    @pytest.mark.parametrize("name", ["l2", "angular"])
    def test_chunked_equals_one_chunk(self, name, monkeypatch):
        from repro.core import objectstore

        metric = get_metric(name)
        store, queries, boundaries, obj_ids = self._case(np.random.default_rng(5))
        expected = np.concatenate(
            [
                metric.pairwise(q, store.matrix[obj_ids[lo:hi]])
                for q, lo, hi in zip(queries, boundaries[:-1], boundaries[1:])
            ]
        )
        runs = []
        for budget in (objectstore.GATHER_CHUNK_ELEMENTS, 16):  # 16 elements: 4 rows
            monkeypatch.setattr(objectstore, "GATHER_CHUNK_ELEMENTS", budget)
            before = metric.counter.snapshot()
            dists = objectstore.segmented_distances(
                metric, store, queries, boundaries, obj_ids, settled_pairs=5
            )
            after = metric.counter.snapshot()
            runs.append((dists, after["calls"] - before["calls"], after["pairs"] - before["pairs"]))
        (whole, whole_calls, whole_pairs), (chunked, chunked_calls, chunked_pairs) = runs
        np.testing.assert_array_equal(whole, expected)
        np.testing.assert_array_equal(chunked, expected)
        assert whole_calls == 1
        # greedy chunks of whole segments within 4 rows: [3, 0], [25] (over
        # the budget, alone), [0, 0] (no rows, so no call counted), [7], [1, 0]
        assert chunked_calls == 4
        # the settled pairs are counted once, with the first chunk
        assert whole_pairs == chunked_pairs == len(obj_ids) + 5

    def test_no_candidates_still_counts_settled_pairs(self):
        from repro.core.objectstore import make_object_store, segmented_distances

        metric = EuclideanDistance()
        store = make_object_store(np.zeros((3, 2)))
        out = segmented_distances(
            metric, store, np.zeros((2, 2)), np.zeros(3, dtype=np.int64),
            np.zeros(0, dtype=np.int64), settled_pairs=4,
        )
        assert out.shape == (0,) and metric.pair_count == 4

    def test_list_store_is_one_chunk(self):
        from repro.core.objectstore import segmented_distances

        metric = get_metric("edit")
        words = ["tree", "metric", "space", "spade", "trie", "matrix"]
        boundaries = np.array([0, 4, 4, 6])
        obj_ids = np.array([0, 1, 2, 3, 4, 5])
        queries = ["trees", "pace", "mat"]
        dists = segmented_distances(metric, words, queries, boundaries, obj_ids)
        assert metric.counter.calls == 1
        np.testing.assert_array_equal(
            dists,
            np.concatenate(
                [metric.pairwise("trees", words[:4]), metric.pairwise("mat", words[4:])]
            ),
        )
