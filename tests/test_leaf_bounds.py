"""The kNN descent's tighter bounds and the table list's ``obj_dis`` test stay exact.

Three bounds that read no stored row: each internal level's children are
re-tested under the k-th bound their own pivots' offers just tightened, the
leaf level carries ``d(q, parent pivot)``, and every leaf candidate whose
``|d(q, p) - obj_dis|`` exceeds its query's bound (for kNN first tightened
to the k-th smallest ``d(q, p) + obj_dis``) is dropped before it is faulted.
Every answer here is checked against a brute-force scan of the live objects
on tloc (2-d L2), vector (300-d angular) and Words (edit distance), through
exact ties, tombstones among the nearest, cache-table entries, ``k`` above
the live count, two-stage split groups, 2 shards and a tiered index; range
objects at exactly ``r`` on collinear points are kept.  A tiered kNN faults
no block whose candidates all failed the ``obj_dis`` test.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.search as search_module
import repro.core.searchcommon as searchcommon
from repro import GTS, ShardedGTS
from repro.core.construction import objects_nbytes
from repro.datasets import get_dataset
from repro.gpusim import Device, DeviceSpec
from repro.metrics import EuclideanDistance
from repro.tier import TierConfig


def _dataset(name: str):
    """Objects with exact duplicates (ties at every distance), metric, queries."""
    sizes = {"tloc": 900, "vector": 300, "words": 110}
    data = get_dataset(name, cardinality=sizes[name], seed=7)
    objects = list(data.objects)
    # every fifth object twice more: ties at the k-th distance
    duplicates = [objects[i] for i in range(0, len(objects), 5)] * 2
    if isinstance(objects[0], np.ndarray):
        all_objects = np.vstack(objects + duplicates)
    else:
        all_objects = objects + duplicates
    queries = [objects[i] for i in range(0, len(objects), len(objects) // 6)][:6]
    queries += list(data.sample_queries(4, seed=11))  # perturbed objects
    if name == "words":
        queries = queries[:4] + queries[-2:]  # a pair costs ~0.2 ms here
    return all_objects, data.metric, queries


class _Live:
    """The live objects of an index, kept by the test beside the index."""

    def __init__(self, objects):
        self.rows = {i: objects[i] for i in range(len(objects))}

    def knn(self, metric, query, k):
        ids = sorted(self.rows)
        dists = metric.pairwise(query, [self.rows[i] for i in ids])
        return dict(zip(ids, dists.tolist())), np.sort(dists)[:k]

    def range(self, metric, query, radius):
        ids = sorted(self.rows)
        dists = metric.pairwise(query, [self.rows[i] for i in ids])
        return {i for i, d in zip(ids, dists.tolist()) if d <= radius}


def _check_knn(index, live: _Live, metric, queries, k):
    for query, answer in zip(queries, index.knn_query_batch(queries, k)):
        by_id, expected = live.knn(metric, query, k)
        assert len(answer) == min(k, len(live.rows))
        ids = [i for i, _ in answer]
        assert len(set(ids)) == len(ids)
        np.testing.assert_allclose([d for _, d in answer], expected, rtol=0, atol=1e-9)
        for obj_id, dist in answer:
            assert obj_id in by_id  # live: never a tombstoned object
            assert dist == pytest.approx(by_id[obj_id], abs=1e-9)


def _check_range(index, live: _Live, metric, queries, radius):
    for query, answer in zip(queries, index.range_query_batch(queries, radius)):
        assert {i for i, _ in answer} == live.range(metric, query, radius)


def _radius(metric, objects, queries):
    """A radius that catches a few percent of the objects."""
    dists = metric.pairwise(queries[0], list(objects[:200]))
    return float(np.sort(dists)[8])


def _churn(index, live: _Live, metric, queries):
    """Tombstone some nearest neighbours of every query, insert near copies."""
    for query in queries[:4]:
        by_id, _ = live.knn(metric, query, 3)
        nearest = sorted(by_id, key=lambda i: (by_id[i], i))[:2]
        for obj_id in nearest:
            if obj_id in live.rows:
                index.delete(obj_id)
                del live.rows[obj_id]
    for obj_id in list(live.rows)[:3]:
        row = live.rows[obj_id]
        live.rows[index.insert(row)] = row  # a cache entry that ties an indexed row


@pytest.mark.parametrize(
    "name, k",
    [("tloc", 1), ("tloc", 8), ("tloc", 25), ("vector", 1), ("vector", 25), ("words", 8)],
)
def test_resident_answers_equal_brute_force(name, k):
    objects, metric, queries = _dataset(name)
    index = GTS.build(objects, metric, node_capacity=6, seed=3, cache_capacity_bytes=1 << 20)
    # the bounds under test are the descent's: on vector and Words data the
    # tree cannot prune, and the plan choice would verify the later batches
    # in one flat pass (tests/test_planner.py covers that pass)
    index._planner.forced = "descent"
    assert index.height >= 2  # internal levels to re-test, a parent pivot at the leaves
    live = _Live(objects)
    _check_knn(index, live, metric, queries, k)
    _check_range(index, live, metric, queries, _radius(metric, objects, queries))
    _churn(index, live, metric, queries)
    assert index.cache_size > 0
    _check_knn(index, live, metric, queries, k)
    _check_range(index, live, metric, queries, _radius(metric, objects, queries))
    index.close()


@pytest.mark.parametrize("name", ["tloc", "words"])
def test_tombstoned_nearest_of_queries_at_leaf_parent_pivots(name):
    # at a leaf's parent pivot d(q, p) = 0, so d(q, p) + obj_dis is exact:
    # a tombstoned object's sum would undercut the live k-th distance
    objects, metric, _ = _dataset(name)
    index = GTS.build(objects, metric, node_capacity=6, seed=3)
    tree = index.tree
    pivots = tree.pivot[tree.level_slice(tree.height - 1)]
    queries = [objects[int(p)] for p in pivots[pivots >= 0][:6]]
    live = _Live(objects)
    for query in queries:
        by_id, _ = live.knn(metric, query, 1)
        for obj_id in sorted(by_id, key=lambda i: (by_id[i], i))[:4]:
            index.delete(obj_id)
            del live.rows[obj_id]
    _check_knn(index, live, metric, queries, 3)
    index.close()


@pytest.mark.parametrize("name", ["tloc", "words"])
def test_k_above_the_live_count_answers_every_live_object(name):
    objects, metric, queries = _dataset(name)
    index = GTS.build(objects, metric, node_capacity=6, seed=3, cache_capacity_bytes=1 << 20)
    live = _Live(objects)
    _churn(index, live, metric, queries)
    _check_knn(index, live, metric, queries[:3], len(live.rows) + 10)
    index.close()


@pytest.mark.parametrize("name", ["tloc", "vector"])
def test_two_stage_split_groups_answer_exactly(name, monkeypatch):
    objects, metric, queries = _dataset(name)
    groups = []
    real_split = search_module.split_into_groups

    def spy(cand_query, limit_pairs):
        out = real_split(cand_query, limit_pairs)
        groups.append(len(out))
        return out

    monkeypatch.setattr(search_module, "split_into_groups", spy)
    device = Device(DeviceSpec(memory_bytes=objects_nbytes(objects) + (1 << 20)))
    index = GTS.build(objects, metric, node_capacity=6, seed=3, device=device)
    # shrink what is left of the device so every level splits its batch
    hog = device.allocate(device.available_bytes - 12 * 1024, "test-hog")
    live = _Live(objects)
    _check_knn(index, live, metric, queries, 8)
    _check_range(index, live, metric, queries, _radius(metric, objects, queries))
    assert max(groups) > 1
    device.free(hog)
    index.close()


@pytest.mark.parametrize("name", ["tloc", "vector", "words"])
def test_two_shards_answer_exactly(name):
    objects, metric, queries = _dataset(name)
    index = ShardedGTS.build(
        objects, metric, num_shards=2, node_capacity=6, seed=3, cache_capacity_bytes=1 << 20
    )
    live = _Live(objects)
    _check_knn(index, live, metric, queries, 8)
    _check_range(index, live, metric, queries, _radius(metric, objects, queries))
    _churn(index, live, metric, queries)
    _check_knn(index, live, metric, queries, 8)
    index.close()


@pytest.mark.parametrize("name", ["tloc", "vector", "words"])
def test_tiered_index_answers_exactly(name):
    objects, metric, queries = _dataset(name)
    budget = objects_nbytes(objects) // 4
    tier = TierConfig(memory_budget_bytes=budget, block_bytes=budget // 8)
    index = GTS.build(
        objects, metric, node_capacity=6, seed=3, tier=tier, cache_capacity_bytes=1 << 20
    )
    live = _Live(objects)
    _check_knn(index, live, metric, queries, 8)
    _check_range(index, live, metric, queries, _radius(metric, objects, queries))
    _churn(index, live, metric, queries)
    _check_knn(index, live, metric, queries, 8)
    index.close()


def test_range_keeps_objects_at_exactly_r_on_collinear_points():
    # objects, pivots and queries on one line: every triangle inequality is
    # tight, so an unwidened obj_dis test would round objects at r away
    metric = EuclideanDistance()
    xs = np.round(np.arange(0.0, 60.0, 0.1), 1)
    points = np.column_stack([xs * 0.6, xs * 0.8])
    index = GTS.build(points, metric, node_capacity=4, seed=5)
    live = _Live(points)
    for qi in (37, 211, 480):
        query = points[qi] + np.array([0.03, 0.04])
        for j in (qi - 25, qi + 3, qi + 60):
            radius = float(metric.pairwise(query, points[j : j + 1])[0])
            answer = index.range_query(query, radius)
            assert {i for i, _ in answer} == live.range(metric, query, radius)
            assert j in {i for i, _ in answer}
        _check_knn(index, live, metric, [query], 7)
    index.close()


def test_tiered_knn_faults_no_block_whose_candidates_all_failed(monkeypatch):
    objects, metric, queries = _dataset("tloc")
    tier = TierConfig(memory_budget_bytes=objects_nbytes(objects) // 4, block_bytes=256)
    index = GTS.build(objects, metric, node_capacity=6, seed=3, tier=tier)
    tree, store, port = index.tree, index.pager.store, index._port
    error = metric.distance_error()
    verify_faults: list = []
    expected: list = []
    real_verify, real_fault = search_module.verify_leaves, port.fault

    def recording_verify(batch, leaf_q, leaf_node, parent_dist):
        # the bound each query has when its leaves are expanded
        bounds = batch.results.bounds(leaf_q)
        sizes = tree.size[leaf_node]
        flat = searchcommon.concatenated_ranges(tree.pos[leaf_node], sizes)
        ids, obj_dis = tree.obj_ids[flat], tree.obj_dis[flat]
        pd = np.repeat(parent_dist, sizes)
        kth = np.sort(pd + obj_dis)[min(batch.results.k[0], len(ids)) - 1]
        limit = min(float(bounds[0]), kth + searchcommon.distance_slack(kth, error))
        floor, reach = searchcommon.pivot_window(pd, limit, error)
        expected.append((ids, (obj_dis >= floor) & (obj_dis <= reach)))
        verify_faults.append([])

        def fault(obj_ids):
            verify_faults[-1].extend(np.asarray(obj_ids).tolist())
            return real_fault(obj_ids)

        monkeypatch.setattr(port, "fault", fault)
        try:
            return real_verify(batch, leaf_q, leaf_node, parent_dist)
        finally:
            monkeypatch.setattr(port, "fault", real_fault)

    monkeypatch.setattr(search_module, "verify_leaves", recording_verify)
    live = _Live(objects)
    skipped_blocks = 0
    for query in queries:
        verify_faults.clear()
        expected.clear()
        _check_knn(index, live, metric, [query], 8)
        assert len(verify_faults) == len(expected) == 1
        ids, passed = expected[0]
        assert set(verify_faults[0]) == set(ids[passed].tolist())
        faulted_blocks = set(store.blocks_of(np.asarray(verify_faults[0], dtype=np.int64)).tolist())
        candidate_blocks = set(store.blocks_of(ids).tolist())
        failed_blocks = candidate_blocks - set(store.blocks_of(ids[passed]).tolist())
        assert not failed_blocks & faulted_blocks
        skipped_blocks += len(failed_blocks)
    assert skipped_blocks > 0  # the test saw blocks whose candidates all failed
    index.close()
