"""The sharded router against a single-device replay, and one liveness rule.

A :class:`~repro.ShardedGTS` keeps only per-shard global-id arrays and asks
the owning shard whether an id is live; these tests drive it and a
single-device :class:`~repro.GTS` through the same seeded update stream and
check that every read agrees after every step, that both indexes reject the
same deletes with the same errors, and that a fixed sharded batch charges
exactly the recorded simulated work.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import GTS, EditDistance, EuclideanDistance, ShardedGTS
from repro.exceptions import IndexError_, UpdateError

_BUILD = dict(node_capacity=6, cache_capacity_bytes=160, seed=5)


def _data(kind: str, rng: np.random.Generator):
    """Objects with exact duplicates (ties at the k-th distance), metric, radius."""
    if kind == "vectors":
        base = np.round(rng.normal(scale=3.0, size=(30, 2)), 1)
        objects = np.concatenate([base, base[:20], base[:10]])
        return objects, EuclideanDistance(), 1.5
    roots = ["tree", "trie", "pivot", "query", "batch", "shard", "merge"]
    base = [roots[int(i)] + "abc"[: int(j)] for i, j in rng.integers(0, [7, 4], size=(30, 2))]
    return base + base[:20] + base[:10], EditDistance(), 1.0


def _new_object(kind: str, objects, rng: np.random.Generator):
    """A fresh object, or (half the time) a copy of an existing one."""
    if rng.random() < 0.5:
        return objects[int(rng.integers(0, len(objects)))]
    if kind == "vectors":
        return np.round(rng.normal(scale=3.0, size=2), 1)
    return "".join(chr(97 + int(c)) for c in rng.integers(0, 6, size=int(rng.integers(3, 7))))


def _same_error(calls):
    """Run each call; all must raise UpdateError with the same message."""
    messages = set()
    for call in calls:
        with pytest.raises(UpdateError) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1, messages


def _assert_agree(sharded: ShardedGTS, single: GTS, objects, queries, radius, kind):
    num_ids = len(single._objects)
    for gid in range(-1, num_ids + 2):
        assert sharded.is_live(gid) == single.is_live(gid), gid
    for gid in range(num_ids):
        got, want = sharded.get_object(gid), single.get_object(gid)
        if kind == "vectors":
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want
    with pytest.raises(IndexError_):
        sharded.get_object(num_ids)
    assert sharded.num_objects == single.num_objects
    assert sharded.range_query_batch(queries, radius) == single.range_query_batch(queries, radius)
    for k in (1, 4, 7):
        assert sharded.knn_query_batch(queries, k) == single.knn_query_batch(queries, k)


@pytest.mark.parametrize("kind", ["vectors", "words"])
@pytest.mark.parametrize("num_shards", [2, 3])
@pytest.mark.parametrize("policy", ["round-robin", "size-balanced"])
def test_seeded_updates_match_a_single_device_replay(policy, num_shards, kind):
    rng = np.random.default_rng(7 + num_shards)
    objects, metric, radius = _data(kind, rng)
    queries = [objects[i] for i in (0, 5, 31, 47)]
    sharded = ShardedGTS.build(
        objects, metric, num_shards=num_shards, assignment=policy, **_BUILD
    )
    single = GTS.build(objects, metric, **_BUILD)
    _assert_agree(sharded, single, objects, queries, radius, kind)
    for step in range(15):
        live = [gid for gid in range(len(single._objects)) if single.is_live(gid)]
        op = ("insert", "delete", "update", "batch", "dead")[step % 5]
        if op == "insert":
            obj = _new_object(kind, objects, rng)
            assert sharded.insert(obj) == single.insert(obj)
        elif op == "delete":
            gid = live[int(rng.integers(0, len(live)))]
            sharded.delete(gid)
            single.delete(gid)
        elif op == "update":
            gid = live[int(rng.integers(0, len(live)))]
            obj = _new_object(kind, objects, rng)
            assert sharded.update(gid, obj) == single.update(gid, obj)
        elif op == "batch":
            picks = rng.choice(len(live), size=3, replace=False)
            deletes = [live[int(i)] for i in picks]
            inserts = [_new_object(kind, objects, rng) for _ in range(3)]
            sharded.batch_update(inserts=inserts, deletes=deletes)
            single.batch_update(inserts=inserts, deletes=deletes)
        else:
            dead = [gid for gid in range(len(single._objects)) if not single.is_live(gid)]
            gid = dead[int(rng.integers(0, len(dead)))]
            _same_error([lambda: sharded.delete(gid), lambda: single.delete(gid)])
            _same_error([
                lambda: sharded.batch_update(deletes=[gid]),
                lambda: single.batch_update(deletes=[gid]),
            ])
        _assert_agree(sharded, single, objects, queries, radius, kind)
    assert sharded.rebuild_count > 0
    sharded.close()
    single.close()


def _single(points):
    return GTS.build(points, EuclideanDistance(), node_capacity=8, seed=5)


def _sharded(points):
    return ShardedGTS.build(points, EuclideanDistance(), num_shards=2, node_capacity=8, seed=5)


@pytest.mark.parametrize("make", [_single, _sharded], ids=["single", "sharded"])
class TestOneLivenessRule:
    """Known ids are ``[0, next id)``; a known id that is not live is deleted."""

    def test_cached_id_deleted_twice(self, points_2d, make):
        index = make(points_2d)
        gid = index.insert(np.array([50.0, 50.0]))
        index.delete(gid)
        assert not index.is_live(gid)
        before = index.device.stats.as_dict()
        with pytest.raises(UpdateError, match=f"object {gid} has already been deleted"):
            index.delete(gid)
        with pytest.raises(UpdateError, match=rf"already been deleted: \[{gid}\]"):
            index.batch_update(deletes=[gid])
        assert index.device.stats.as_dict() == before

    def test_id_deleted_again_after_a_rebuild(self, points_2d, make):
        index = make(points_2d)
        index.delete(7)
        index.rebuild()
        assert not index.is_live(7)
        with pytest.raises(UpdateError, match="object 7 has already been deleted"):
            index.delete(7)
        with pytest.raises(UpdateError, match=r"already been deleted: \[7\]"):
            index.batch_update(deletes=[7, 8])
        assert index.is_live(8)

    def test_batch_deleted_ids_stay_deleted(self, points_2d, make):
        index = make(points_2d)
        gid = index.insert(np.array([50.0, 50.0]))
        index.batch_update(deletes=[gid, 3])
        for dead in (gid, 3):
            assert not index.is_live(dead)
            with pytest.raises(UpdateError, match=f"object {dead} has already been deleted"):
                index.delete(dead)

    def test_unknown_ids(self, points_2d, make):
        index = make(points_2d)
        for gid in (-1, len(points_2d)):
            assert not index.is_live(gid)
            with pytest.raises(UpdateError, match=f"unknown object id {gid}"):
                index.delete(gid)
            with pytest.raises(UpdateError, match=rf"unknown object ids: \[{gid}\]"):
                index.batch_update(deletes=[gid])
            with pytest.raises(IndexError_, match="unknown object id"):
                index.get_object(gid)


def _stats(cells: dict) -> dict:
    """``ExecutionStats`` fields of one timeline with every other field zero."""
    zero = dict(
        kernel_launches=0, parallel_steps=0, total_ops=0.0, sorted_elements=0,
        bytes_to_device=0, bytes_to_host=0, allocations=0, frees=0,
        peak_memory_bytes=0, sim_time=0.0, pool_peak_bytes={}, transfer_seconds={},
        maintenance_seconds=0.0,
    )
    return {**zero, **cells}


#: ``ExecutionStats`` deltas, without ``host_time``, of one range batch and
#: one kNN batch on the fixed sharded index of the test below: the
#: coordinating timeline, the host executor (the merge charges), then each
#: shard's device (its ``results-d2h`` bytes among ``bytes_to_host``).
#: Recorded from the scatter-gather that ranked per-shard answer lists;
#: the one triple merge must charge exactly the same.
RECORDED_BATCH_STATS = [
    _stats(dict(
        kernel_launches=26, parallel_steps=38, total_ops=7008.0, bytes_to_device=640,
        bytes_to_host=4176, sim_time=3.10586666666667e-06,
        transfer_seconds={"results-d2h": 3.48e-07},
    )),
    _stats(dict(parallel_steps=12, total_ops=112.0, sim_time=1.1200000000000001e-08)),
    _stats(dict(
        kernel_launches=14, parallel_steps=14, total_ops=3656.0, bytes_to_device=320,
        bytes_to_host=2064, allocations=6, frees=6, peak_memory_bytes=24632,
        sim_time=3.0946666666666698e-06,
        pool_peak_bytes={"main": 5120, "objects": 3200, "tree": 6120, "workspace": 10192},
        transfer_seconds={"results-d2h": 1.72e-07},
    )),
    _stats(dict(
        kernel_launches=12, parallel_steps=12, total_ops=3240.0, bytes_to_device=320,
        bytes_to_host=2112, allocations=6, frees=6, peak_memory_bytes=25144,
        sim_time=2.682666666666668e-06,
        pool_peak_bytes={"main": 5120, "objects": 3200, "tree": 6120, "workspace": 10704},
        transfer_seconds={"results-d2h": 1.7600000000000001e-07},
    )),
]


def test_sharded_batch_stats_match_the_recorded_values():
    points = np.random.default_rng(11).normal(scale=4.0, size=(400, 2))
    # exact duplicates: ids 201.. sit on the other shard than their copies,
    # ids 262.. on the same one, so kNN answers tie within and across shards
    points[201:261] = points[:60]
    points[262:292] = points[:30]
    index = ShardedGTS.build(points, EuclideanDistance(), num_shards=2, node_capacity=8, seed=3)
    # a cached object and a tombstone take part in the batches
    index.insert(points[17] + 0.05)
    index.delete(23)
    queries = [points[0], points[17] + 0.01, points[99], points[250] + 0.01, points[399]]
    timelines = [index.device, index.host] + [shard.device for shard in index.shards]
    befores = [timeline.snapshot() for timeline in timelines]
    ranges = index.range_query_batch(queries, [0.8, 1.2, 0.5, 2.0, 0.0])
    knns = index.knn_query_batch(queries, [1, 5, 8, 3, 12])
    deltas = []
    for timeline, before in zip(timelines, befores):
        delta = dataclasses.asdict(timeline.stats.delta_since(before))
        del delta["host_time"]
        deltas.append(delta)
    assert deltas == RECORDED_BATCH_STATS
    assert [len(a) for a in ranges] == [3, 25, 2, 42, 1]
    assert [len(a) for a in knns] == [1, 5, 8, 3, 12]
    index.close()
