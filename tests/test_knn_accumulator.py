"""The kNN accumulator keeps only what can still be an answer.

``BoundedTriples.offer`` culls each kNN offer to the k-th smallest distance
of each query's own entries, and every refresh of the k-th bounds trims the
pool.  Both are exact: the tests run the same batches against a reference
accumulator that keeps every live candidate (HEAD's rule before the cull:
bound read before the offer, no trim) and against a brute-force sort by
``(distance, id)``, and require byte-identical answers and identical
simulated work.  Also covered: the shared segmented k-th selection, the
``k`` limit of the parameter checks, the vectorised rebuild fold set and the
range-only angular bounds.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import repro.core.search as search_module
from repro import GTS, AngularDistance, EuclideanDistance, ShardedGTS
from repro.core.search import BoundedTriples, search
from repro.core.searchcommon import segment_kth_smallest
from repro.exceptions import QueryError
from repro.gpusim import Device, DeviceSpec


class _KeepAll(BoundedTriples):
    """Reference accumulator: keeps every live candidate within the old bound.

    The rule before the cull: an offer is checked against the k-th bound read
    before it, and the pool is never trimmed; the bounds are one
    ``np.partition`` per query.
    """

    def _kth_bounds(self) -> np.ndarray:
        if self._kth is None:
            self._compact()
            bounds = np.full(self._num_queries, np.inf, dtype=np.float64)
            edges = np.searchsorted(self._cq, np.arange(self._num_queries + 1, dtype=np.int64))
            for qi in range(self._num_queries):
                start, end = int(edges[qi]), int(edges[qi + 1])
                k = int(self.k[qi])
                if end - start >= k:
                    bounds[qi] = np.partition(self._cd[start:end], k - 1)[k - 1]
            self._kth = bounds
        return self._kth

    def offer(self, query_indices, obj_ids, dists) -> int:
        query_indices = np.asarray(query_indices, dtype=np.int64)
        obj_ids = np.asarray(obj_ids, dtype=np.int64)
        dists = np.asarray(dists, dtype=np.float64)
        if len(obj_ids) == 0:
            return 0
        keep = dists <= self.bounds(query_indices)
        live = np.ones(len(obj_ids), dtype=bool)
        if self._tombstones is not None:
            live = ~np.isin(obj_ids, self._tombstones)
        keep &= live
        if keep.any():
            self._pending.append((query_indices[keep], obj_ids[keep], dists[keep]))
            self._kth = None
        return int(keep.sum())


def _grid(side: int = 24) -> np.ndarray:
    """Integer 2-d grid points: every query sees many exact distance ties."""
    xs, ys = np.meshgrid(np.arange(side, dtype=np.float64), np.arange(side, dtype=np.float64))
    return np.column_stack([xs.ravel(), ys.ravel()])


def _pivots(data) -> list:
    """Eight pivot ids of the tree :func:`_serve` builds over ``data``."""
    probe = GTS.build(data, EuclideanDistance(), node_capacity=6, seed=3)
    pivots = np.unique(probe._tree.pivot[probe._tree.pivot >= 0])[:8]
    probe.close()
    return pivots.tolist()


def _brute_force(index, queries, ks) -> list:
    """Every live object ranked by ``(distance, id)``, cut to each ``k``."""
    live = np.asarray([i for i in range(len(index._objects)) if index.is_live(i)], dtype=np.int64)
    rows = np.asarray([index.get_object(int(i)) for i in live])
    out = []
    for query, k in zip(queries, np.broadcast_to(ks, len(queries))):
        dists = index.metric.pairwise(query, rows)
        order = np.lexsort((live, dists))[: int(k)]
        out.append([(int(live[i]), float(dists[i])) for i in order])
    return out


def _both(run):
    """``run()`` with the reference accumulator, then with the culling one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_module, "BoundedTriples", _KeepAll)
        reference = run()
    return reference, run()


def _serve(data, queries, ks, *, metric=None, inserts=(), deletes=(), **options):
    index = GTS.build(
        data, metric or EuclideanDistance(), node_capacity=6, seed=3,
        device=Device(DeviceSpec()), **options,
    )
    for row in inserts:
        index.insert(row)
    for obj_id in deletes:
        index.delete(obj_id)
    index.metric.reset_counter()
    before = index.device.snapshot()
    answers = index.knn_query_batch(queries, ks)
    stats = dataclasses.asdict(index.device.stats.delta_since(before))
    del stats["host_time"]
    observed = answers, index.metric.pair_count, stats, _brute_force(index, queries, ks)
    index.close()
    return observed


def _assert_exact(reference, culled):
    assert culled[0] == reference[0]
    assert culled[1:3] == reference[1:3]
    # the brute-force ranking agrees with both, ties at the k-th included
    assert culled[0] == culled[3]


class TestCullIsExact:
    def test_ties_at_the_kth_distance(self):
        data = _grid()
        queries = [data[i] + 0.0 for i in (0, 37, 100, 299, 575)] + [np.array([3.5, 3.5])]
        _assert_exact(*_both(lambda: _serve(data, queries, 5)))

    def test_per_query_k_inside_one_batch(self):
        data = _grid()
        queries = [data[i] for i in (5, 70, 70, 300, 410)]
        ks = np.array([1, 4, 9, 2, 13])
        _assert_exact(*_both(lambda: _serve(data, queries, ks)))

    def test_k_above_the_live_count(self, points_2d):
        data = points_2d[:60]
        queries = [data[0], data[30], np.array([100.0, -100.0])]
        ks = np.array([len(data) + 5, 3, len(data)])
        reference, culled = _both(lambda: _serve(data, queries, ks, deletes=[4, 9]))
        _assert_exact(reference, culled)
        assert len(culled[0][0]) == len(data) - 2

    def test_tombstones_among_the_nearest(self, points_2d):
        data = points_2d[:300]
        queries = [data[i] for i in (0, 1, 2)]
        # delete each query itself and its nearest neighbours
        nearest = np.argsort(np.linalg.norm(data - data[0], axis=1))[:6].tolist()
        deletes = sorted(set(nearest) | {1, 2})
        _assert_exact(*_both(lambda: _serve(data, queries, 8, deletes=deletes)))

    def test_tombstoned_pivots_nearest_to_their_queries(self, points_2d):
        # a pivot offer holding a dead pivot at distance 0: counting it
        # towards the offer's k-th distance would cull the live pivots
        data = points_2d[:300]
        pivots = _pivots(data)
        queries = [data[p] for p in pivots]
        ks = np.resize([1, 2], len(queries))
        _assert_exact(*_both(lambda: _serve(data, queries, ks, deletes=pivots)))

    def test_pivot_reoffered_by_its_own_leaf(self, points_2d):
        data = points_2d[:300]
        pivots = _pivots(data)
        queries = [data[p] for p in pivots]
        reference, culled = _both(lambda: _serve(data, queries, 4))
        _assert_exact(reference, culled)
        for pivot, answer in zip(pivots, culled[0]):
            ids = [oid for oid, _ in answer]
            assert ids.count(pivot) == 1 and answer[0][1] == 0.0

    def test_cache_table_entries(self, points_2d):
        data = points_2d[:300]
        queries = [data[i] for i in (0, 50, 120)]
        # churn-style inserts: some land exactly on or next to the queries
        inserts = [q + 0.0 for q in queries] + [q + 1e-3 for q in queries] + list(points_2d[300:310])
        _assert_exact(*_both(lambda: _serve(
            data, queries, 6, inserts=inserts, deletes=[300], cache_capacity_bytes=1 << 16
        )))

    def test_query_split_across_two_stage_groups(self, points_2d, monkeypatch):
        monkeypatch.setattr(search_module, "level_pair_limit", lambda *args: 2)
        data = points_2d[:300]
        queries = [data[i] for i in (0, 7, 150)]
        _assert_exact(*_both(lambda: _serve(data, queries, np.array([5, 9, 3]))))

    def test_two_shard_index(self, points_2d):
        data = points_2d[:400]
        queries = [data[i] for i in (0, 3, 250)] + [np.array([0.0, 0.0])]

        def run():
            index = ShardedGTS.build(
                data, EuclideanDistance(), num_shards=2, node_capacity=6, seed=3
            )
            index.delete(3)
            answers = index.knn_query_batch(queries, np.array([7, 1, 12, 5]))
            index.close()
            return answers

        reference, culled = _both(run)
        assert culled == reference
        live = np.delete(np.arange(len(data)), 3)
        for query, k, answer in zip(queries, (7, 1, 12, 5), culled):
            dists = np.linalg.norm(data[live] - query, axis=1)
            assert [oid for oid, _ in answer] == live[np.lexsort((live, dists))][:k].tolist()

    def test_angular_certified_path(self, rng):
        data = rng.normal(size=(400, 24))
        data[200:210] = data[0]  # duplicate payloads tie at distance 0
        queries = [data[0], data[50], rng.normal(size=24)]
        _assert_exact(*_both(lambda: _serve(
            data, queries, np.array([12, 3, 8]), metric=AngularDistance()
        )))


def test_pool_holds_k_plus_ties_per_query(points_2d):
    """White-box: after a kNN batch on 2-d L2 the pool is ``k`` plus ties per query."""
    data = np.vstack([points_2d, _grid(8) * 0.25])
    index = GTS.build(data, EuclideanDistance(), node_capacity=8, seed=1)
    queries = [data[i] for i in range(0, len(data), 23)]
    k = 8
    results = search(
        index._tree, index._objects, index.metric, index.device, queries, None,
        "two-sided", k=np.full(len(queries), k),
    )
    answers = results.answers()
    for qi, answer in enumerate(answers):
        pooled = np.sort(results._cd[results._cq == qi])
        assert len(answer) == k
        # everything beyond the first k ties the k-th distance
        assert (pooled[k:] == pooled[k - 1]).all()
    index.close()


def test_query_sorted_offer_into_an_empty_pool_skips_the_dedupe(monkeypatch):
    """An offer lists each ``(query, id)`` once, so a query-sorted offer into
    an empty pool is already compact; any other compaction dedupes."""
    calls = []
    real = search_module.dedupe_min_triples
    monkeypatch.setattr(
        search_module, "dedupe_min_triples", lambda *a: calls.append(1) or real(*a)
    )
    k = np.array([2, 2])
    sorted_offer = BoundedTriples(2, None, k=k)
    sorted_offer.offer([0, 0, 0, 1, 1], [4, 1, 7, 4, 2], [0.5, 0.2, 0.9, 0.1, 0.3])
    np.testing.assert_array_equal(sorted_offer.bounds(np.array([0, 1])), [0.5, 0.3])
    assert calls == []
    assert sorted_offer.answers() == [[(1, 0.2), (4, 0.5)], [(4, 0.1), (2, 0.3)]]
    unsorted = BoundedTriples(2, None, k=k)
    unsorted.offer([1, 0, 1, 0], [4, 1, 2, 4], [0.1, 0.2, 0.3, 0.5])
    np.testing.assert_array_equal(unsorted.bounds(np.array([0, 1])), [0.5, 0.3])
    assert calls == [1]
    sorted_offer.offer([0], [1], [0.2])  # a second offer: the pool is not empty
    sorted_offer.answers()
    assert calls == [1, 1]


class TestSegmentKthSmallest:
    def test_matches_per_segment_sort(self, rng):
        counts = rng.integers(0, 12, size=40)
        boundaries = np.concatenate(([0], np.cumsum(counts)))
        values = rng.integers(0, 6, size=int(boundaries[-1])).astype(np.float64)
        ks = rng.integers(1, 10, size=40)
        got = segment_kth_smallest(values, boundaries, ks)
        for seg, k in enumerate(ks.tolist()):
            segment = np.sort(values[boundaries[seg] : boundaries[seg + 1]])
            assert got[seg] == (segment[k - 1] if len(segment) >= k else np.inf)

    def test_empty_and_huge_k(self):
        boundaries = np.array([0, 0, 3, 3])
        ks = np.array([1, 2 ** 62, 1])
        got = segment_kth_smallest(np.array([3.0, 1.0, 2.0]), boundaries, ks)
        assert got.tolist() == [np.inf, np.inf, np.inf]


class TestHugeK:
    @pytest.mark.parametrize(
        "k", [2 ** 63, 2 ** 64, 1e300, 10 ** 400, 2.0 ** 63],
        ids=["2**63", "2**64", "1e300", "10**400", "2.0**63"],
    )
    def test_rejected_with_query_error(self, points_2d, k):
        index = GTS.build(points_2d[:50], EuclideanDistance(), node_capacity=6)
        with pytest.raises(QueryError):
            index.knn_query(points_2d[0], k)
        with pytest.raises(QueryError):
            index.knn_query_batch([points_2d[0]], np.array([k], dtype=object))
        with pytest.raises(QueryError):
            index.execute_batch([("knn", points_2d[0], k)])
        index.close()

    @pytest.mark.parametrize("sharded", [False, True])
    def test_k_two_to_the_62_returns_every_live_object(self, points_2d, sharded):
        data = points_2d[:120]
        if sharded:
            index = ShardedGTS.build(data, EuclideanDistance(), num_shards=2, node_capacity=6)
        else:
            index = GTS.build(data, EuclideanDistance(), node_capacity=6)
        new_id = index.insert(np.array([0.5, 0.5]))
        index.delete(7)
        queries = [data[0], data[60]]
        tracemalloc.start()
        answers = index.knn_query_batch(queries, 2 ** 62)
        batch = index.execute_batch([("knn", data[0], 2 ** 62), ("knn", data[60], 2 ** 62)])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        live = sorted(set(range(len(data))) - {7} | {new_id})
        for answer in answers:
            assert sorted(oid for oid, _ in answer) == live
        assert batch == answers
        # nothing k-sized: a few MB of host memory, device traffic bounded
        # by the objects, not by k
        assert peak < 8 << 20
        devices = [s.device for s in index.shards] if sharded else [index.device]
        for device in devices:
            assert device.stats.bytes_to_host < 1 << 30
        index.close()


def test_fold_ids_match_the_per_id_loop(points_2d):
    index = GTS.build(points_2d[:200], EuclideanDistance(), node_capacity=6,
                      cache_capacity_bytes=1 << 16)
    for row in points_2d[200:205]:
        index.insert(row)
    for obj_id in (3, 0, 199, 57, 201):
        index.delete(obj_id)
    fold, cached = index._fold_ids()
    loop = [int(i) for i in index._indexed_ids if int(i) not in index._tombstones]
    expected = np.asarray(loop + index._cache.object_ids(), dtype=np.int64)
    assert fold.dtype == np.int64
    assert fold.tolist() == expected.tolist()
    assert cached == index._cache.object_ids()
    index.close()


def test_range_bounds_skip_the_upper_pass(rng):
    metric = AngularDistance()
    data = rng.normal(size=(60, 16))
    data[5] = 0.0  # an uncertified row takes the trivial bounds
    queries = rng.normal(size=(7, 16))
    digest = metric.store_digest(data)
    lo, hi = metric.distance_bounds(queries, data, digest)
    lo_only, none = metric.distance_bounds(queries, data, digest, False)
    assert none is None and hi is not None
    assert lo_only.tobytes() == lo.tobytes()
