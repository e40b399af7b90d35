"""Pre-refactor reference implementation of the batch query hot paths.

The columnar/fused-segmented engine (DESIGN.md §8) replaced the original
per-query evaluation strategy:

* the object store was a Python **list** of rows (``bulk_load`` listified
  every dataset), so every candidate gather walked object-by-object;
* pivot distances and leaf verification issued one ``metric.pairwise`` call
  per unique query;
* qualifying results were inserted **per hit** into per-query Python dicts,
  and MkNNQ computed every k-th bound with ``sorted()`` over such a dict.

This module preserves that strategy, adapted to the current internal
interfaces, so ``bench_host_wallclock.py`` can measure the refactor's host
wall-clock speedup against a faithful baseline *and* assert that answers and
simulated device time are byte-for-byte unchanged.  The simulated-GPU charges
(kernel launches, work items, result buffers) are copied verbatim from the
historical code, which is what makes that equality assertion meaningful.

Not imported by the library — benchmark-only code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

import repro.core.gts as gts_module
import repro.core.search as search_module
from repro.core.objectstore import ListStore, gather_rows
from repro.core.searchcommon import RESULT_BYTES, leaf_candidate_segments
from repro.metrics.base import Metric
from repro.metrics.vector import _VectorMetric

__all__ = ["legacy_engine"]


def _exclude_set(tombstones: Optional[np.ndarray]) -> Optional[set]:
    if tombstones is None or len(tombstones) == 0:
        return None
    return {int(t) for t in tombstones}


def _batch_rows(batch):
    """Where a tree's kernels gather rows: the port of a tiered index, else the store."""
    return batch.store if batch.port is None else batch.port


def _legacy_pivot_distances(batch, cand_query, pivot_ids):
    """Historical pivot-distance evaluation of one tree: one pairwise call per query."""
    device, metric, queries = batch.device, batch.metric, batch.queries
    objects = _batch_rows(batch)
    out = np.empty(len(cand_query), dtype=np.float64)
    if len(cand_query) == 0:
        return out
    order = np.argsort(cand_query, kind="stable")
    sorted_q = cand_query[order]
    unique_queries, starts = np.unique(sorted_q, return_index=True)
    boundaries = list(starts) + [len(order)]
    host_start = time.perf_counter()
    for qi, query_index in enumerate(unique_queries):
        idx = order[boundaries[qi] : boundaries[qi + 1]]
        pivots = gather_rows(objects, pivot_ids[idx])
        out[idx] = metric.pairwise(queries[int(query_index)], pivots)
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=len(cand_query),
        op_cost=metric.unit_cost,
        label="pivot-distances",
        host_time=host,
    )
    return out


class _LegacyBoundedTriples:
    """Historical per-query dict pools (per-item adds, ``sorted()`` k-th bounds).

    Same interface as ``search.BoundedTriples``.  Range offers keep the hits
    within the radius; kNN offers keep every candidate, as the historical
    pools did, so the equality checks also cover the engine's culling of
    candidates beyond the current k-th bound.
    """

    def __init__(self, num_queries: int, tombstones: Optional[np.ndarray], radii=None, k=None):
        self._pools: list[dict[int, float]] = [dict() for _ in range(num_queries)]
        self._radii = radii
        self.k = k
        self.label = "mrq" if k is None else "mknn"
        self._exclude = _exclude_set(tombstones)

    def _add_one(self, query_index: int, obj_id: int, dist: float) -> None:
        if self._exclude and obj_id in self._exclude:
            return
        pool = self._pools[query_index]
        prev = pool.get(obj_id)
        if prev is None or dist < prev:
            pool[obj_id] = dist

    def bound(self, query_index: int) -> float:
        if self.k is None:
            return float(self._radii[query_index])
        pool = self._pools[query_index]
        k = int(self.k[query_index])
        if len(pool) < k:
            return np.inf
        dists = sorted(pool.values())
        return float(dists[k - 1])

    def bounds(self, query_indices) -> np.ndarray:
        return np.array([self.bound(int(q)) for q in query_indices], dtype=np.float64)

    def offer(self, query_indices, obj_ids, dists) -> int:
        kept = 0
        for qi, oid, dist in zip(
            np.asarray(query_indices), np.asarray(obj_ids), np.asarray(dists)
        ):
            if self.k is None and dist > self._radii[int(qi)]:
                continue
            self._add_one(int(qi), int(oid), float(dist))
            kept += 1
        return kept

    def answers(self) -> list[list[tuple[int, float]]]:
        out = []
        for qi, pool in enumerate(self._pools):
            ranked = sorted(pool.items(), key=lambda item: (item[1], item[0]))
            if self.k is not None:
                ranked = ranked[: int(self.k[qi])]
            out.append([(int(oid), float(dist)) for oid, dist in ranked])
        return out


def _legacy_verify(batch, leaf_q, leaf_node, parent_dist=None) -> None:
    """Historical leaf verification: per-query pairwise + per-hit dict inserts.

    Which candidates reach the exact evaluation is the engine's choice
    (``leaf_candidate_segments`` over the batch's forest: tombstones and
    the table list's ``obj_dis`` test); only how each pair is evaluated and
    pooled is historical, tree by tree.
    """
    if len(leaf_q) == 0:
        return
    forest, metric, results = batch.forest, batch.metric, batch.results
    filtered = parent_dist is not None and search_module.leaf_pivot_filter(batch)
    unique_queries, boundaries, candidates = leaf_candidate_segments(
        forest,
        leaf_q,
        leaf_node,
        batch.tombstones,
        parent_dist=parent_dist if filtered else None,
        bounds=results.bounds(leaf_q) if filtered else None,
        k=results.k,
        distance_error=metric.distance_error(),
    )
    for tree, start, end in batch.parts(leaf_q):
        member, id_off = batch.members[tree], forest.id_off[tree]
        first_query = tree * batch.num_queries
        objects = member.store if member.port is None else member.port
        total_verified = 0
        total_hits = 0
        host_start = time.perf_counter()
        for qi, query_index in enumerate(unique_queries.tolist()):
            if not first_query <= query_index < first_query + batch.num_queries:
                continue
            obj_ids = np.sort(candidates[boundaries[qi] : boundaries[qi + 1]])
            total_verified += len(obj_ids)
            rows = gather_rows(objects, obj_ids - id_off)
            dists = metric.pairwise(batch.queries[query_index - first_query], rows)
            total_hits += results.offer(np.full(len(obj_ids), query_index), obj_ids, dists)
        host = time.perf_counter() - host_start
        device = member.device
        device.launch_kernel(
            work_items=total_verified,
            op_cost=metric.unit_cost,
            label=f"{results.label}-verify",
            host_time=host,
        )
        if results.k is None:
            needed = total_hits * RESULT_BYTES
        elif total_verified:
            reached = np.unique(leaf_q[start:end])
            cap = forest.trees[tree].num_objects
            slots = sum(min(int(results.k[int(q)]), cap) for q in reached)
            needed = max(slots, 1) * RESULT_BYTES
        else:
            needed = 0
        if needed:
            buffer_bytes = min(needed, max(RESULT_BYTES, device.available_bytes))
            alloc = device.allocate(buffer_bytes, f"{results.label}-results", pool="workspace")
            device.transfer_to_host(needed, label="results-d2h")
            device.free(alloc)


@contextmanager
def legacy_engine():
    """Swap the engine's hot paths for the pre-refactor implementations.

    Patches in a list object store, per-query pivot distances, the
    dict answer pools of both query kinds, and the generic per-query
    ``pairwise_segmented`` fallback (no fused passes, no store digest).
    Restores everything on exit.
    """
    saved = (
        gts_module.make_object_store,
        search_module.pivot_distances_per_query,
        search_module.verify_leaves,
        search_module.BoundedTriples,
        _VectorMetric._pairwise_segmented,
        Metric.store_digest,
    )
    gts_module.make_object_store = lambda objs: ListStore(objs[i] for i in range(len(objs)))
    search_module.pivot_distances_per_query = _legacy_pivot_distances
    search_module.verify_leaves = _legacy_verify
    search_module.BoundedTriples = _LegacyBoundedTriples
    _VectorMetric._pairwise_segmented = Metric._pairwise_segmented
    Metric.store_digest = lambda self, matrix: None
    try:
        yield
    finally:
        (
            gts_module.make_object_store,
            search_module.pivot_distances_per_query,
            search_module.verify_leaves,
            search_module.BoundedTriples,
            _VectorMetric._pairwise_segmented,
            Metric.store_digest,
        ) = saved
