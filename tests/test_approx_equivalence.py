"""The approximate searches choose (query, node) pairs; the exact engine does the rest.

:class:`~repro.approx.ApproximateGTS` descends the whole batch level by
level and :class:`~repro.approx.LearnedLeafRouter` verifies every query's
chosen leaves in one call, both through the exact search's kernels and
accumulator.  These tests pin that:

* on an index with an empty cache the batched searches return exactly what
  a compact per-query reference of the selection rule returns, with the
  same count of distance evaluations (``MetricCounter.pairs``) — over 2-d
  L2, 300-d angular (certified verification), edit distance and a tiered
  store, with tombstones and repeated queries;
* cached inserts and deleted cached objects are seen: a beam wider than
  every level and a router whose budget covers every leaf answer exactly
  like the exact search;
* the router's fit is host-side, and the router follows the index's live
  tree across rebuilds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EuclideanDistance
from repro.approx import ApproximateGTS, LearnedLeafRouter
from repro.core.objectstore import gather_rows
from repro.datasets import get_dataset
from repro.tier import TierConfig

K = 5


def _pool_answers(pool: dict, radius, k) -> list:
    ranked = sorted(pool.items(), key=lambda item: (item[1], item[0]))
    if k is not None:
        return ranked[:k]
    return [(o, d) for o, d in ranked if d <= radius]


def _verify_reference(index, query, leaves, pool: dict) -> int:
    """Offer the live objects of ``leaves`` to ``pool``; returns the pairs."""
    ids = [
        i
        for leaf in leaves
        for i in index.tree.node_objects(int(leaf)).tolist()
        if i not in index._tombstones
    ]
    if ids:
        dists = index.metric.pairwise(query, gather_rows(index._objects, np.asarray(ids)))
        for obj_id, dist in zip(ids, dists.tolist()):
            pool[obj_id] = min(dist, pool.get(obj_id, np.inf))
    return len(ids)


def beam_reference(index, queries, beam_width, radius=None, k=None):
    """Per query: at each internal level offer the beam's pivots and keep the
    ``beam_width`` children with the smallest lower bound (stable argsort
    over frontier-then-slot order); verify the final beam's leaves."""
    tree, metric = index.tree, index.metric
    nc = tree.node_capacity
    answers, pairs = [], 0
    for query in queries:
        pool: dict = {}
        frontier = np.zeros(1, dtype=np.int64)
        for _ in range(tree.height):
            pivots = tree.pivot[frontier]
            dists = metric.pairwise(query, gather_rows(index._objects, pivots))
            pairs += len(pivots)
            for obj_id, dist in zip(pivots.tolist(), dists.tolist()):
                if obj_id not in index._tombstones:
                    pool[obj_id] = min(dist, pool.get(obj_id, np.inf))
            children = (frontier[:, None] * nc + 1 + np.arange(nc)).ravel()
            d = np.repeat(dists, nc)
            lb = np.maximum(0.0, np.maximum(tree.min_dis[children] - d, d - tree.max_dis[children]))
            keep = tree.size[children] > 0
            if radius is not None:
                keep &= lb <= radius
            frontier = children[keep][np.argsort(lb[keep], kind="stable")[:beam_width]]
        pairs += _verify_reference(index, query, frontier, pool)
        answers.append(_pool_answers(pool, radius, k))
    return answers, pairs


def router_reference(router, queries, radius=None, k=None):
    """Per query: verify the ``leaf_budget`` best-ranked leaves."""
    index = router.index
    answers, pairs = [], 0
    for query in queries:
        pool: dict = {}
        pairs += len(router._pivot_ids)
        leaves = router.rank_leaves(query)[: router.leaf_budget]
        pairs += _verify_reference(index, query, leaves, pool)
        answers.append(_pool_answers(pool, radius, k))
    return answers, pairs


def _case(name: str):
    if name == "tloc":
        ds, nc = get_dataset("tloc", cardinality=900), 6
    elif name == "tiered-tloc":
        ds, nc = get_dataset("tloc", cardinality=900), 6
    elif name == "vector":
        ds, nc = get_dataset("vector", cardinality=500), 8
    else:
        ds, nc = get_dataset("words", cardinality=600), 6
    tier = TierConfig(memory_budget_bytes=4096, block_bytes=512) if name == "tiered-tloc" else None
    index = GTS.build(ds.objects, ds.metric, node_capacity=nc, seed=5, tier=tier)
    rng = np.random.default_rng(11)
    index.delete(int(index.tree.pivot[0]))
    for obj_id in rng.choice(len(ds.objects), size=25, replace=False).tolist():
        if index.is_live(obj_id):
            index.delete(obj_id)
    picks = rng.choice(len(ds.objects), size=8, replace=False).tolist()
    queries = [ds.objects[i] for i in picks] + [ds.objects[picks[0]], ds.objects[picks[2]]]
    if name == "words":
        radius = 2.0
    else:
        rows = gather_rows(ds.objects, np.arange(0, len(ds.objects), 5))
        sample = ds.metric.pairwise(queries[0], rows)
        radius = float(np.quantile(sample, 0.03))
    return index, queries, radius, ds.objects


CASES = ["tloc", "vector", "words", "tiered-tloc"]


@pytest.fixture(scope="module", params=CASES)
def case(request):
    index, queries, radius, objects = _case(request.param)
    yield index, queries, radius, objects
    index.close()


def _measured(metric, search):
    metric.reset_counter()
    answers = search()
    return answers, metric.counter.pairs


@pytest.mark.parametrize("beam_width", [1, 3, 1024])
def test_beam_matches_the_per_query_reference(case, beam_width):
    index, queries, radius, _ = case
    approx = ApproximateGTS(index, beam_width=beam_width)
    for params in ({"k": K}, {"radius": radius}):
        expected = beam_reference(index, queries, beam_width, **params)
        if "k" in params:
            got = _measured(index.metric, lambda: approx.knn_query_batch(queries, K))
        else:
            got = _measured(index.metric, lambda: approx.range_query_batch(queries, radius))
        assert got == expected


@pytest.mark.parametrize("budget", [1, 4, None])
def test_router_matches_the_per_query_reference(case, budget):
    index, queries, radius, objects = case
    budget = budget or len(index.tree.leaves())
    router = LearnedLeafRouter(index, leaf_budget=budget, training_queries=objects[3:200:9])
    for params in ({"k": K}, {"radius": radius}):
        expected = router_reference(router, queries, **params)
        if "k" in params:
            got = _measured(index.metric, lambda: router.knn_query_batch(queries, K))
        else:
            got = _measured(index.metric, lambda: router.range_query_batch(queries, radius))
        assert got == expected


#: an inserted object no indexed object is near
FAR = np.array([40.0, -40.0])


@pytest.fixture
def cached_index(points_2d):
    index = GTS.build(points_2d, EuclideanDistance(), node_capacity=8, seed=3)
    index.delete(4)
    index.delete(int(index.tree.pivot[0]))
    # three cached inserts, one of them deleted again
    inserted = [index.insert(p) for p in (FAR, points_2d[20] + 1e-3, points_2d[40] + 2e-3)]
    index.delete(inserted[1])
    assert index.cache_size == 2
    return index


def _cache_queries(points_2d):
    return [points_2d[i] for i in (4, 20, 40, 60)] + [FAR, FAR + 0.1]


def test_wide_beam_sees_the_cache_like_the_exact_search(cached_index, points_2d):
    queries = _cache_queries(points_2d)
    wide = ApproximateGTS(cached_index, beam_width=10_000)
    assert wide.knn_query_batch(queries, 6) == cached_index.knn_query_batch(queries, 6)
    assert wide.range_query_batch(queries, 0.4) == cached_index.range_query_batch(queries, 0.4)
    assert wide.knn_query(FAR, 1) == [(len(points_2d), 0.0)]


def test_full_budget_router_sees_the_cache_like_the_exact_search(cached_index, points_2d):
    queries = _cache_queries(points_2d)
    router = LearnedLeafRouter(
        cached_index,
        leaf_budget=len(cached_index.tree.leaves()),
        training_queries=points_2d[:16],
    )
    assert router.knn_query_batch(queries, 6) == cached_index.knn_query_batch(queries, 6)
    assert router.range_query_batch(queries, 0.4) == cached_index.range_query_batch(queries, 0.4)
    assert router.knn_query(FAR, 1) == [(len(points_2d), 0.0)]


def test_router_fit_runs_on_the_host():
    ds = get_dataset("tloc", cardinality=2000)
    index = GTS.build(
        ds.objects,
        ds.metric,
        node_capacity=8,
        tier=TierConfig(memory_budget_bytes=4096, block_bytes=512),
    )
    router = LearnedLeafRouter(index, leaf_budget=4)
    device_before = index.device.stats.as_dict()
    pager_before = index.pager.stats.as_dict()
    router.fit(ds.objects[:20])
    assert router.is_fitted
    assert index.device.stats.as_dict() == device_before
    assert index.pager.stats.as_dict() == pager_before
    index.close()


def test_router_follows_a_rebuilt_tree(points_2d, rng):
    index = GTS.build(points_2d, EuclideanDistance(), node_capacity=6, seed=3)
    router = LearnedLeafRouter(index, leaf_budget=10**6, training_queries=points_2d[:16])
    weights, height = router._weights.copy(), index.height
    index.batch_update(inserts=list(rng.uniform(-5.0, 5.0, size=(2000, 2))))
    assert index.height > height
    queries = [points_2d[i] + 0.01 for i in (1, 77, 150)] + [np.array([4.0, -4.0])]
    assert router.knn_query_batch(queries, 7) == index.knn_query_batch(queries, 7)
    assert router.range_query_batch(queries, 0.5) == index.range_query_batch(queries, 0.5)
    assert sorted(router.rank_leaves(queries[0]).tolist()) == sorted(index.tree.leaves().tolist())
    np.testing.assert_array_equal(router._weights, weights)
