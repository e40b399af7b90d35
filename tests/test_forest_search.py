"""Forest descent: one level-synchronous search over every shard's tree.

:class:`~repro.ShardedGTS` searches its shards' trees as one stacked forest
(:func:`repro.core.search.search_forest`).  These tests pin that the fused
descent answers like a single-device :class:`~repro.GTS`, and that it
charges every shard's device — and pages every tiered shard's blocks —
exactly what searching that shard's tree alone through the one-tree entry
(``GTS._accumulate``) charges, call for call.  The second half checks that
the router re-stacks the forest whenever a shard's tree changes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.search as search_module
from repro import (
    GTS,
    AngularDistance,
    Device,
    DeviceSpec,
    EditDistance,
    EuclideanDistance,
    ShardedGTS,
    TierConfig,
)
from repro.core.construction import objects_nbytes
from repro.core.nodes import TreeStructure
from repro.core.search import search, search_forest
from repro.core.searchcommon import RESULT_BYTES, Forest, query_ks, query_radii
from repro.datasets import generate_tloc, generate_vector, generate_words
from repro.shard.policy import AssignmentPolicy

K = 8


class _Fixed(AssignmentPolicy):
    """Bulk loads give shard ``s`` the next ``sizes[s]`` objects; every later
    insert goes to shard 0 (so a batch update grows that shard alone)."""

    name = "fixed"

    def __init__(self, sizes):
        self.sizes = sizes

    def partition(self, objects, nbytes, num_shards):
        return np.repeat(np.arange(num_shards), self.sizes)

    def assign(self, obj_id, obj, loads):
        return 0


def _dataset(name: str):
    """``(objects, metric, queries, inserts)`` of a small seeded dataset."""
    rng = np.random.default_rng(5)
    if name == "tloc":
        objects = generate_tloc(500, seed=5).objects
        queries = [objects[i] + 0.01 for i in range(0, 500, 45)]
        inserts = [objects[i] + 0.02 for i in (3, 40, 41)]
        return objects, EuclideanDistance(), queries, inserts
    if name == "vector":
        objects = generate_vector(240, seed=7).objects
        queries = [objects[i] + 0.01 * rng.normal(size=300) for i in range(0, 240, 30)]
        inserts = [objects[i] + 0.02 * rng.normal(size=300) for i in (3, 40, 41)]
        return objects, AngularDistance(), queries, inserts
    objects = list(generate_words(240, seed=9).objects)
    queries = [objects[i] + "s" for i in range(0, 240, 40)] + ["forest"]
    inserts = [objects[3] + "x", objects[40][1:], "forests"]
    return objects, EditDistance(), queries, inserts


def _radius(metric, objects, queries) -> float:
    """A radius that catches a few percent of the objects."""
    return float(np.sort(metric.pairwise(queries[0], list(objects)))[12])


def _tier(objects, num_shards: int):
    budget = objects_nbytes(objects) // num_shards // 3
    return TierConfig(memory_budget_bytes=budget, block_bytes=max(64, budget // 6))


def _without_host_time(stats) -> dict:
    fields = dataclasses.asdict(stats)
    del fields["host_time"]  # wall clock
    return fields


def _device_deltas(index, run):
    """``run()``'s result and each shard device's ExecutionStats delta."""
    befores = [shard.device.snapshot() for shard in index.shards]
    out = run()
    deltas = [
        _without_host_time(shard.device.stats.delta_since(before))
        for shard, before in zip(index.shards, befores)
    ]
    return out, deltas


def _alone(shard: GTS, queries, radii=None, k=None) -> None:
    """One shard searched alone through the one-tree entry, then charged
    the results-d2h gather the router adds: its pool for a range batch, at
    most ``k`` per query for kNN."""
    qs, _, _ = shard._accumulate(queries, radii=radii, k=k).triples()
    answered = len(qs)
    if k is not None:
        answered = int(np.minimum(np.bincount(qs, minlength=len(queries)), k).sum())
    shard.device.transfer_to_host(answered * RESULT_BYTES, label="results-d2h")


def _pager_stats(index):
    return [None if shard.pager is None else shard.pager.stats.as_dict() for shard in index.shards]


def _check_batches(make, prepare, queries, radius, single):
    """Two identical sharded indexes (``make``, then ``prepare``): one
    answers through the forest, the other shard by shard alone.  Answers
    must equal ``single``'s and every shard's charges and pager counters the
    alone run's."""
    fused, alone = make(), make()
    prepare(fused)
    prepare(alone)
    for radii, k in ((radius, None), (None, K)):
        if k is None:
            answers, fused_deltas = _device_deltas(
                fused, lambda: fused.range_query_batch(queries, radii)
            )
            expected = single.range_query_batch(queries, radii)
            checked = dict(radii=query_radii(radii, len(queries)))
        else:
            answers, fused_deltas = _device_deltas(fused, lambda: fused.knn_query_batch(queries, k))
            expected = single.knn_query_batch(queries, k)
            checked = dict(k=query_ks(k, len(queries)))
        _, alone_deltas = _device_deltas(
            alone, lambda: [_alone(shard, queries, **checked) for shard in alone.shards]
        )
        assert answers == expected
        assert fused_deltas == alone_deltas
        assert _pager_stats(fused) == _pager_stats(alone)
    fused.close()
    alone.close()


@pytest.mark.parametrize("tiered", [False, True], ids=["resident", "tiered"])
@pytest.mark.parametrize("num_shards", [1, 2, 3])
@pytest.mark.parametrize("name", ["tloc", "vector", "words"])
def test_forest_matches_single_device_and_per_shard_charges(name, num_shards, tiered):
    objects, metric, queries, inserts = _dataset(name)
    tier = _tier(objects, num_shards) if tiered else None
    options = dict(node_capacity=6, seed=3, cache_capacity_bytes=1 << 20, tier=tier)

    def make():
        return ShardedGTS.build(objects, metric, num_shards=num_shards, **options)

    def churn(index):
        # tombstones, and cached objects some queries find first
        for obj_id in (5, 17, 90):
            index.delete(obj_id)
        for obj in inserts:
            index.insert(obj)

    single = GTS.build(objects, metric, node_capacity=6, seed=3, cache_capacity_bytes=1 << 20)
    churn(single)
    _check_batches(make, churn, queries, _radius(metric, objects, queries), single)
    single.close()


@pytest.mark.parametrize("tiered", [False, True], ids=["resident", "tiered"])
def test_trees_of_different_heights_and_a_height_zero_tree(tiered):
    objects, metric, queries, _ = _dataset("tloc")
    objects = objects[:304]
    grown = [obj + 0.005 for obj in generate_tloc(500, seed=5).objects[304:404]]
    tier = _tier(objects, 3) if tiered else None

    def make():
        return ShardedGTS.build(
            objects, metric, num_shards=3, node_capacity=6, seed=3,
            assignment=_Fixed([150, 150, 4]), tier=tier,
        )

    def grow(index):
        # shard 0 takes every insert: its rebuild makes it the tallest tree
        index.batch_update(inserts=grown, deletes=[151, 302])

    probe = make()
    grow(probe)
    assert [shard.height for shard in probe.shards] == [3, 2, 0]
    probe.close()
    single = GTS.build(objects, metric, node_capacity=6, seed=3)
    single.batch_update(inserts=grown, deletes=[151, 302])
    _check_batches(make, grow, queries, _radius(metric, objects, queries), single)
    single.close()


def test_a_shard_whose_objects_are_all_deleted():
    objects, metric, queries, inserts = _dataset("tloc")
    objects = objects[:304]

    def make():
        return ShardedGTS.build(
            objects, metric, num_shards=3, node_capacity=6, seed=3,
            assignment=_Fixed([150, 150, 4]), cache_capacity_bytes=1 << 20,
        )

    def empty_last_shard(index):
        for obj_id in range(300, 304):
            index.delete(obj_id)
        index.insert(inserts[0])  # cached on shard 0

    single = GTS.build(objects, metric, node_capacity=6, seed=3, cache_capacity_bytes=1 << 20)
    empty_last_shard(single)
    _check_batches(make, empty_last_shard, queries, _radius(metric, objects, queries), single)
    single.close()


def test_an_empty_tree_charges_nothing_and_answers_nothing():
    objects, metric, queries, _ = _dataset("tloc")
    index = GTS.build(objects, metric, node_capacity=6, seed=3)
    empty_device = Device(DeviceSpec())
    forest = Forest([index.tree, TreeStructure.empty(0, 6)], id_offsets=[0, len(objects)])
    members = [(index._objects, None, index.device), (objects[:0], None, empty_device)]
    for radii, k in ((query_radii(2.0, len(queries)), None), (None, query_ks(K, len(queries)))):
        results = search_forest(forest, members, metric, queries, None, "two-sided", radii, k)
        qs, ids, dists = results.triples()
        alone = search(index.tree, index._objects, metric, Device(DeviceSpec()), queries, None,
                       "two-sided", radii=radii, k=k)
        np.testing.assert_array_equal(qs, alone.triples()[0])
        np.testing.assert_array_equal(ids, alone.triples()[1])
        np.testing.assert_array_equal(dists, alone.triples()[2])
    assert empty_device.stats.kernel_launches == 0
    assert empty_device.stats.sim_time == 0.0
    index.close()


def test_one_shard_splits_a_level_while_the_other_does_not(monkeypatch):
    objects = generate_tloc(700, seed=5).objects
    queries = [objects[i] + 0.01 for i in range(0, 700, 70)]
    metric = EuclideanDistance()

    def make():
        return ShardedGTS.build(
            objects, metric, num_shards=2, node_capacity=6, seed=3,
            assignment=_Fixed([640, 60]), cache_capacity_bytes=512,
            device_spec=DeviceSpec(memory_bytes=36_000),
        )

    def tombstone(index):
        index.delete(100)

    # searched alone, the large shard splits its pairs at some level and
    # the small one never does
    splits = []
    real_split = search_module.split_into_groups

    def spy(cand_query, limit_pairs):
        groups = real_split(cand_query, limit_pairs)
        splits[-1].append(len(groups))
        return groups

    monkeypatch.setattr(search_module, "split_into_groups", spy)
    probe = make()
    for shard in probe.shards:
        splits.append([])
        _alone(shard, queries, k=query_ks(K, len(queries)))
    probe.close()
    assert splits[0] and max(splits[0]) > 1
    assert splits[1] == []

    single = GTS.build(objects, metric, node_capacity=6, seed=3)
    tombstone(single)
    _check_batches(make, tombstone, queries, _radius(metric, objects, queries), single)
    single.close()


# ------------------------------------------------------------ stack staleness
def _replayed(objects, metric, queries, ops):
    """Answers of a single-device index that ran ``ops`` one by one."""
    single = GTS.build(objects, metric, node_capacity=6, seed=3, cache_capacity_bytes=1 << 20)
    for kind, arg in ops:
        single.insert(arg) if kind == "insert" else single.delete(arg)
    answers = single.knn_query_batch(queries, K), single.range_query_batch(queries, 3.0)
    single.close()
    return answers


def _answers(index, queries):
    return index.knn_query_batch(queries, K), index.range_query_batch(queries, 3.0)


def _assert_current(index):
    """The router's stack holds every shard's live tree."""
    forest = index._forest()
    assert forest is index._stack
    assert all(tree is shard._tree for tree, shard in zip(forest.trees, index.shards))


def test_an_unchanged_index_keeps_its_stack():
    objects, metric, queries, _ = _dataset("tloc")
    index = ShardedGTS.build(objects, metric, num_shards=2, node_capacity=6, seed=3)
    _answers(index, queries)
    stacked = index._stack
    index.delete(7)  # a tombstone changes no tree
    _answers(index, queries)
    assert index._stack is stacked
    index.close()


def test_overflow_rebuild_of_one_shard_is_seen_by_the_next_batch():
    objects, metric, queries, _ = _dataset("tloc")
    index = ShardedGTS.build(
        objects, metric, num_shards=2, node_capacity=6, seed=3, cache_capacity_bytes=64
    )
    _answers(index, queries)
    ops = []
    trees = [shard._tree for shard in index.shards]
    offset = 0
    while index.automatic_rebuild_count == 0:
        obj = queries[offset % len(queries)] + 0.003 * (offset + 1)
        ops.append(("insert", obj))
        index.insert(obj)
        offset += 1
    assert sum(shard._tree is not tree for shard, tree in zip(index.shards, trees)) == 1
    assert _answers(index, queries) == _replayed(objects, metric, queries, ops)
    _assert_current(index)
    index.close()


def test_generation_swap_is_seen_by_the_next_batch():
    objects, metric, queries, _ = _dataset("tloc")
    index = ShardedGTS.build(
        objects, metric, num_shards=2, node_capacity=6, seed=3, cache_capacity_bytes=64
    )
    index.enable_incremental_maintenance()
    ops = [("delete", 9)]
    index.delete(9)
    offset = 0
    while not index.maintenance_due:
        obj = queries[offset % len(queries)] + 0.003 * (offset + 1)
        ops.append(("insert", obj))
        index.insert(obj)
        offset += 1
    expected = _replayed(objects, metric, queries, ops)
    # the old generation keeps serving while the new one is built
    assert _answers(index, queries) == expected
    swapped = False
    while not swapped:
        report = index.run_maintenance_slice()
        swapped = report.swapped
        assert _answers(index, queries) == expected
        _assert_current(index)
    index.close()


@pytest.mark.parametrize("tiered", [False, True], ids=["resident", "tiered"])
def test_rebuild_is_seen_by_the_next_batch(tiered):
    objects, metric, queries, inserts = _dataset("tloc")
    tier = _tier(objects, 2) if tiered else None
    index = ShardedGTS.build(objects, metric, num_shards=2, node_capacity=6, seed=3, tier=tier)
    ops = [("delete", 11), ("delete", 12)] + [("insert", obj) for obj in inserts]
    for kind, arg in ops:
        index.insert(arg) if kind == "insert" else index.delete(arg)
    _answers(index, queries)
    stacked = index._stack
    index.rebuild()
    assert _answers(index, queries) == _replayed(objects, metric, queries, ops)
    assert index._stack is not stacked
    _assert_current(index)
    index.close()


def test_dtype_promoting_insert_into_a_tiered_shard():
    objects, metric, queries, _ = _dataset("tloc")
    whole = np.round(objects * 10).astype(np.int64)
    queries = [np.round(q * 10) for q in queries]
    index = ShardedGTS.build(
        whole, metric, num_shards=2, node_capacity=6, seed=3, tier=_tier(whole, 2),
        cache_capacity_bytes=1 << 20,
    )

    def answers():
        return index.knn_query_batch(queries, K), index.range_query_batch(queries, 30.0)

    answers()
    promoted = queries[0] + 0.5  # a float row rewrites its shard's int64 store
    index.insert(promoted)
    assert any(shard._objects.matrix.dtype == np.float64 for shard in index.shards)
    single = GTS.build(whole, metric, node_capacity=6, seed=3, cache_capacity_bytes=1 << 20)
    single.insert(promoted)
    expected = single.knn_query_batch(queries, K), single.range_query_batch(queries, 30.0)
    assert answers() == expected
    _assert_current(index)
    single.close()
    index.close()
