"""The per-batch plan choice: the descent or one flat pass over the table list.

A resident single-tree :class:`GTS` answers a batch either with the
level-synchronous descent or with the flat pass (``verify_flat``), which
verifies every indexed object for every query.  Both must give identical
answers — checked under the test-only forced plans on tloc (2-d L2), 300-d
angular vectors and Words (edit distance over a list store), through exact
duplicates (ties at the k-th distance), tombstones, cached inserts,
per-query ``k`` above the live count and an empty batch.  The choice itself
is made from metric pair counts alone: the first batch of a kind descends,
a share of at least ``FLAT_SHARE`` turns the kind flat, a descent runs
again after ``FLAT_RUN`` flat batches, and every tree install forgets the
shares.  Tiered and sharded indexes always descend.  A flat batch charges
one verify kernel over ``Q * n`` candidates and, for kNN, one selection
kernel over as many.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.gts as gts_module
from repro import GTS, ShardedGTS
from repro.core import MaintenanceConfig
from repro.core.construction import objects_nbytes
from repro.datasets import get_dataset
from repro.gpusim import Device
from repro.tier import TierConfig


def _dataset(name: str):
    """Objects with exact duplicates, their metric and a few queries."""
    sizes = {"tloc": 600, "vector": 300, "words": 110}
    data = get_dataset(name, cardinality=sizes[name], seed=7)
    objects = list(data.objects)
    # every fifth object twice more: ties at every distance
    duplicates = [objects[i] for i in range(0, len(objects), 5)] * 2
    if isinstance(objects[0], np.ndarray):
        all_objects = np.vstack(objects + duplicates)
    else:
        all_objects = objects + duplicates
    queries = [objects[i] for i in range(0, len(objects), len(objects) // 5)][:5]
    queries += list(data.sample_queries(3, seed=11))
    return all_objects, data.metric, queries


def _radius(metric, objects, queries) -> float:
    """A radius that catches a few percent of the objects."""
    return float(np.sort(metric.pairwise(queries[0], list(objects[:200])))[8])


def _build(objects, metric, **options) -> GTS:
    return GTS.build(objects, metric, node_capacity=6, seed=3, **options)


def _workload(index: GTS, objects, metric, queries) -> list:
    """Every answer of a fixed sequence of batches, updates in between."""
    radius = _radius(metric, objects, queries)
    n = len(objects)
    ks = np.array([1, 3, 8, n + 5, 2, n * 4, 5, 1][: len(queries)])
    out = [
        index.knn_query_batch(queries, 5),
        index.knn_query_batch(queries, ks),
        index.range_query_batch(queries, radius),
        index.knn_query_batch([], 3),
        index.range_query_batch([], radius),
    ]
    # tombstone each query's nearest objects (duplicates among them), then
    # cache near copies that tie indexed rows
    for query in queries[:3]:
        for obj_id, _ in index.knn_query(query, 3):
            if index.is_live(obj_id):
                index.delete(obj_id)
    for i in (0, 5, 10):
        index.insert(objects[i])
    cached = index.insert(objects[1])
    index.delete(cached)  # a deleted cache entry
    out += [
        index.knn_query_batch(queries, 5),
        index.knn_query_batch(queries, ks),
        index.range_query_batch(queries, radius),
        index.range_query_batch(queries, np.linspace(0.0, 2 * radius, len(queries))),
    ]
    assert index.cache_size >= 3
    return out


@pytest.mark.parametrize("name", ["tloc", "vector", "words"])
def test_forced_plans_give_identical_answers(name):
    objects, metric, queries = _dataset(name)
    answers, counts = {}, {}
    for plan in ("descent", "flat"):
        index = _build(objects, metric, cache_capacity_bytes=1 << 20)
        index._planner.forced = plan
        answers[plan] = _workload(index, objects, metric, queries)
        counts[plan] = index.plan_counts
        index.close()
    assert answers["flat"] == answers["descent"]
    # the empty batches ran nothing and are not counted; three single
    # kNN queries picked the objects to delete
    assert counts["flat"] == {"range": {"descent": 0, "flat": 3}, "knn": {"descent": 0, "flat": 7}}
    assert counts["descent"] == {
        "range": {"descent": 3, "flat": 0},
        "knn": {"descent": 7, "flat": 0},
    }


@pytest.mark.parametrize("name", ["tloc", "vector", "words"])
def test_chosen_plans_give_the_descents_answers(name):
    objects, metric, queries = _dataset(name)
    pinned = _build(objects, metric, cache_capacity_bytes=1 << 20)
    pinned._planner.forced = "descent"
    chosen = _build(objects, metric, cache_capacity_bytes=1 << 20)
    for _ in range(3):
        assert _workload(chosen, objects, metric, queries) == _workload(
            pinned, objects, metric, queries
        )
    if name == "vector":
        # 300-d angular: the tree cannot prune, so the choice went flat
        assert chosen.plan_counts["knn"]["flat"] > 0
    pinned.close()
    chosen.close()


def _vector_index(**options) -> tuple:
    objects, metric, queries = _dataset("vector")
    return _build(objects, metric, **options), objects, queries


def _plans(index: GTS, run, batches: int) -> list:
    """The plan each of ``batches`` calls of ``run`` was served with."""
    plans = []
    for _ in range(batches):
        before = index.plan_counts
        run()
        after = index.plan_counts
        changed = [
            plan
            for kind in after
            for plan in after[kind]
            if after[kind][plan] != before[kind][plan]
        ]
        assert len(changed) == 1
        plans.append(changed[0])
    return plans


def test_first_batch_of_each_kind_descends_then_unprunable_kinds_go_flat():
    index, objects, queries = _vector_index()
    knn = lambda: index.knn_query_batch(queries, 8)
    rng = lambda: index.range_query_batch(queries, 0.5)
    assert _plans(index, knn, 1) == ["descent"]
    assert _plans(index, rng, 1) == ["descent"]  # the kNN share does not carry over
    assert index._planner._share["knn"] >= gts_module.FLAT_SHARE
    assert _plans(index, knn, 2) == ["flat", "flat"]
    assert _plans(index, rng, 2) == ["flat", "flat"]
    index.close()


def test_a_prunable_kind_keeps_the_descent():
    objects, metric, queries = _dataset("tloc")
    index = _build(objects, metric)
    radius = _radius(metric, objects, queries)
    assert _plans(index, lambda: index.range_query_batch(queries, radius), 20) == ["descent"] * 20
    assert index._planner._share["range"] < gts_module.FLAT_SHARE
    index.close()


def test_the_plan_turns_flat_at_a_share_of_flat_share(monkeypatch):
    index, objects, queries = _vector_index()
    run = lambda: index.knn_query_batch(queries, 8)
    _plans(index, run, 1)
    share = index._planner._share["knn"]
    monkeypatch.setattr(gts_module, "FLAT_SHARE", np.nextafter(share, np.inf))
    assert _plans(index, run, 2) == ["descent", "descent"]
    monkeypatch.setattr(gts_module, "FLAT_SHARE", share)
    assert _plans(index, run, 1) == ["flat"]
    index.close()


def test_the_share_is_the_descents_pairs_per_query_and_tree_object():
    index, objects, queries = _vector_index()
    metric = index.metric
    before = metric.pair_count
    index.knn_query_batch(queries, 8)
    pairs = metric.pair_count - before
    assert index._planner._share["knn"] == pairs / (len(queries) * index.num_indexed)
    # the cache scan's pairs are not the tree's
    index.insert(objects[3])
    before = metric.pair_count
    index._planner.reset()
    index.knn_query_batch(queries, 8)
    pairs = metric.pair_count - before - len(queries)
    assert index._planner._share["knn"] == pairs / (len(queries) * index.num_indexed)
    index.close()


def test_a_descent_reruns_after_flat_run_flat_batches():
    index, objects, queries = _vector_index()
    run = lambda: index.knn_query_batch(queries, 8)
    runs = gts_module.FLAT_RUN
    expected = (["descent"] + ["flat"] * runs) * 2 + ["descent"]
    assert _plans(index, run, len(expected)) == expected
    assert index.plan_counts["knn"] == {"descent": 3, "flat": 2 * runs}
    index.close()


def test_a_rerun_descent_can_switch_back():
    """After a radius change that lets the tree prune, the re-measure keeps the descent."""
    objects, metric, queries = _dataset("tloc")
    index = _build(objects, metric)
    wide, narrow = 1e9, _radius(metric, objects, queries)
    runs = gts_module.FLAT_RUN
    plans = _plans(index, lambda: index.range_query_batch(queries, wide), 1 + runs)
    assert plans == ["descent"] + ["flat"] * runs
    plans = _plans(index, lambda: index.range_query_batch(queries, narrow), 3)
    assert plans == ["descent"] * 3
    index.close()


def _flat_then(index, queries, action) -> list:
    """Turn kNN flat, run ``action``, and return the next two kNN plans."""
    run = lambda: index.knn_query_batch(queries, 8)
    assert _plans(index, run, 2)[-1] == "flat"
    action()
    return _plans(index, run, 2)


def test_the_shares_reset_on_rebuild_and_batch_update():
    index, objects, queries = _vector_index()
    assert _flat_then(index, queries, index.rebuild) == ["descent", "flat"]
    assert _flat_then(
        index, queries, lambda: index.batch_update(inserts=[objects[2]], deletes=[4])
    ) == ["descent", "flat"]
    assert _flat_then(index, queries, lambda: index.bulk_load(objects)) == ["descent", "flat"]
    index.close()


def test_the_shares_reset_on_a_generation_swap():
    index, objects, queries = _vector_index(cache_capacity_bytes=4096)
    index.enable_incremental_maintenance(MaintenanceConfig(hard_overflow_factor=None))

    def swap():
        i = 0
        while not index.maintenance_due:
            index.insert(objects[i])
            i += 1
        # a batch served from the old tree and the cache before the swap
        assert _plans(index, lambda: index.knn_query_batch(queries, 8), 1) == ["flat"]
        while index.maintenance_due:
            index.run_maintenance_slice()
        assert index.automatic_rebuild_count == 1

    assert _flat_then(index, queries, swap) == ["descent", "flat"]
    index.close()


def test_the_shares_reset_on_a_persistence_load(tmp_path):
    index, objects, queries = _vector_index()
    run = lambda: index.knn_query_batch(queries, 8)
    assert _plans(index, run, 2) == ["descent", "flat"]
    path = index.save(tmp_path / "index")
    loaded = GTS.load(path)
    assert loaded.plan_counts["knn"] == {"descent": 0, "flat": 0}
    plans = _plans(loaded, lambda: loaded.knn_query_batch(queries, 8), 2)
    assert plans == ["descent", "flat"]
    assert loaded.knn_query_batch(queries, 8) == index.knn_query_batch(queries, 8)
    loaded.close()
    index.close()


def test_a_tiered_index_never_goes_flat():
    objects, metric, queries = _dataset("vector")
    budget = objects_nbytes(objects) // 4
    index = _build(objects, metric, tier=TierConfig(memory_budget_bytes=budget, block_bytes=4800))
    resident = _build(objects, metric)
    for _ in range(4):
        assert index.knn_query_batch(queries, 8) == resident.knn_query_batch(queries, 8)
        assert index.range_query_batch(queries, 0.5) == resident.range_query_batch(queries, 0.5)
    index._planner.forced = "flat"  # the flat pass would fault every block
    index.knn_query_batch(queries, 8)
    assert index.plan_counts == {"range": {"descent": 4, "flat": 0}, "knn": {"descent": 5, "flat": 0}}
    assert resident.plan_counts["knn"]["flat"] == 3
    index.close()
    resident.close()


def test_a_sharded_index_never_goes_flat():
    objects, metric, queries = _dataset("vector")
    index = ShardedGTS.build(objects, metric, num_shards=2, node_capacity=6, seed=3)
    for _ in range(4):
        index.knn_query_batch(queries, 8)
        index.range_query_batch(queries, 0.5)
    index.knn_query_batch([], 8)
    assert index.plan_counts == {"range": {"descent": 4, "flat": 0}, "knn": {"descent": 4, "flat": 0}}
    for shard in index.shards:
        assert shard.plan_counts["knn"]["flat"] == 0
        assert shard.plan_counts["range"]["flat"] == 0
    index.close()


def _charges(monkeypatch, index, run) -> tuple:
    """The ``(label, work items, op cost)`` of every kernel ``run`` launches,
    and the label of every allocation it makes."""
    kernels, allocations = [], []
    launch, allocate = Device.launch_kernel, Device.allocate

    def spy_launch(self, work_items, op_cost=1.0, label="kernel", host_time=0.0):
        kernels.append((label, int(work_items), float(op_cost)))
        return launch(self, work_items, op_cost=op_cost, label=label, host_time=host_time)

    def spy_allocate(self, nbytes, label, *args, **kwargs):
        allocations.append(label)
        return allocate(self, nbytes, label, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Device, "launch_kernel", spy_launch)
        patch.setattr(Device, "allocate", spy_allocate)
        run()
    return kernels, allocations


@pytest.mark.parametrize("name", ["tloc", "vector", "words"])
def test_a_flat_batch_charges_one_verify_kernel_and_a_knn_selection(monkeypatch, name):
    objects, metric, queries = _dataset(name)
    index = _build(objects, metric)
    index._planner.forced = "flat"
    n, q = index.num_indexed, len(queries)
    kernels, allocations = _charges(monkeypatch, index, lambda: index.knn_query_batch(queries, 4))
    assert kernels == [("mknn-kth-bound", q * n, 4.0), ("mknn-verify", q * n, metric.unit_cost)]
    assert allocations == ["mknn-results"]
    kernels, allocations = _charges(
        monkeypatch, index, lambda: index.range_query_batch(queries, _radius(metric, objects, queries))
    )
    assert kernels == [("mrq-verify", q * n, metric.unit_cost)]
    assert allocations == ["mrq-results"]
    # tombstoned rows are dropped before the verify kernel
    index.delete(0)
    kernels, _ = _charges(monkeypatch, index, lambda: index.knn_query_batch(queries, 4))
    assert kernels == [("mknn-kth-bound", q * n, 4.0), ("mknn-verify", q * (n - 1), metric.unit_cost)]
    index.close()
