"""Batch metric k-nearest-neighbour query (MkNNQ) over a GTS tree — Algorithm 5.

The batch kNN search follows the same level-synchronous, memory-aware descent
as the range query but replaces the fixed radius with a per-query running
bound:

* every pivot met during the descent is a real indexed object, so its
  distance to the query is a legitimate kNN candidate; the k-th smallest
  candidate distance seen so far is the query's current bound ``d(q, k_cur)``;
* a child node is pruned (Lemma 5.2) when every object it can contain is
  provably at distance ``>= d(q, k_cur)`` from the query, using the child's
  ``[min_dis, max_dis]`` interval of distances to the parent pivot;
* at the leaf level all surviving objects are verified and merged with the
  candidate pool; the k smallest distances are returned.

The candidate pools are flat ``(query, id, distance)`` triple arrays: adds
append in O(1), and the per-query k-th bounds are recomputed lazily with one
global dedup-lexsort plus a ``np.partition`` per query — no per-hit Python
dict traffic (DESIGN.md §8).

The result is exact in the usual tie-tolerant sense: the returned distances
are the true k smallest, and when several objects tie at the k-th distance an
arbitrary subset of the tied objects completes the answer.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..exceptions import QueryError
from ..gpusim.device import Device
from ..metrics.base import Metric
from .construction import take_objects
from .nodes import TreeStructure
from .searchcommon import (
    ENTRY_BYTES,
    RESULT_BYTES,
    IntermediateTable,
    PruneMode,
    broadcast_query_param,
    dedupe_min_triples,
    filter_live_triples,
    leaf_candidate_segments,
    leaf_prefetch_ids,
    level_pair_limit,
    pivot_distances_per_query,
    prune_children,
    segmented_distances,
    split_into_groups,
    tombstone_array,
    triples_to_answer_lists,
)

__all__ = ["batch_knn_query"]


class _CandidatePools:
    """Per-query kNN candidate pools as flat (query, id, distance) arrays.

    Adds are O(1) array appends; compaction (triggered lazily by bound or
    top-k reads) merges the pending triples with one ``np.lexsort``, keeping
    the minimum distance per (query, id) pair — the same semantics as the
    historical per-hit dict updates, minus the Python-object traffic.
    """

    def __init__(self, num_queries: int, k: np.ndarray, tombstones: Optional[np.ndarray]):
        self._num_queries = int(num_queries)
        self._k = k
        self._tombstones = tombstones
        # compacted pool: sorted by (query, id), unique per (query, id)
        self._cq = np.zeros(0, dtype=np.int64)
        self._cid = np.zeros(0, dtype=np.int64)
        self._cd = np.zeros(0, dtype=np.float64)
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._bounds: Optional[np.ndarray] = None

    def add(self, query_indices, obj_ids, dists) -> None:
        """Append candidate triples; tombstoned objects are dropped here."""
        query_indices, obj_ids, dists = filter_live_triples(
            query_indices, obj_ids, dists, self._tombstones
        )
        if len(obj_ids) == 0:
            return
        self._pending.append((query_indices, obj_ids, dists))
        self._bounds = None

    def _compact(self) -> None:
        if not self._pending:
            return
        qs = np.concatenate([self._cq] + [p[0] for p in self._pending])
        ids = np.concatenate([self._cid] + [p[1] for p in self._pending])
        dists = np.concatenate([self._cd] + [p[2] for p in self._pending])
        self._pending = []
        self._cq, self._cid, self._cd = dedupe_min_triples(qs, ids, dists)

    def _ensure_bounds(self) -> np.ndarray:
        self._compact()
        if self._bounds is None:
            bounds = np.full(self._num_queries, np.inf, dtype=np.float64)
            edges = np.searchsorted(
                self._cq, np.arange(self._num_queries + 1, dtype=np.int64)
            )
            for qi in range(self._num_queries):
                start, end = int(edges[qi]), int(edges[qi + 1])
                k = int(self._k[qi])
                if end - start >= k:
                    bounds[qi] = np.partition(self._cd[start:end], k - 1)[k - 1]
            self._bounds = bounds
        return self._bounds

    def bound(self, query_index: int) -> float:
        """Current k-th bound: inf until k distinct candidates are known."""
        return float(self._ensure_bounds()[int(query_index)])

    def bounds(self, query_indices: np.ndarray) -> np.ndarray:
        return self._ensure_bounds()[np.asarray(query_indices, dtype=np.int64)]

    def k_of(self, query_indices: np.ndarray) -> np.ndarray:
        return self._k[np.asarray(query_indices, dtype=np.int64)]

    def topk_all(self) -> list[list[tuple[int, float]]]:
        """Every query's top-k answer list from one global (q, dist, id) sort."""
        self._compact()
        return triples_to_answer_lists(
            self._cq, self._cid, self._cd, self._num_queries, k=self._k
        )


def _verify_leaves(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    leaf_q: np.ndarray,
    leaf_node: np.ndarray,
    tombstones: Optional[np.ndarray],
    pools: _CandidatePools,
) -> None:
    """Verify every object of the surviving leaves against its query.

    Same fused shape as the MRQ verification: per-query candidate segments
    (slot-sorted on tiered stores), one gather, one segmented distance call,
    one bulk pool add.
    """
    if len(leaf_q) == 0:
        return
    # Lookahead for tiered stores (see range_query._verify_leaves).
    if getattr(objects, "prefetch_enabled", False):
        objects.prefetch_ids(leaf_prefetch_ids(tree, leaf_node))
    host_start = time.perf_counter()
    unique_queries, boundaries, obj_ids = leaf_candidate_segments(
        tree,
        leaf_q,
        leaf_node,
        tombstones,
        slot_of=getattr(objects, "slot_of", None),
    )
    total_verified = len(obj_ids)
    if total_verified:
        # slot-sorted gather on tiered stores: order-insensitive (candidates
        # land in the pool) and block-coalesced (see range_query)
        query_objects = take_objects(queries, unique_queries)
        dists = segmented_distances(metric, objects, query_objects, boundaries, obj_ids)
        owner = np.repeat(unique_queries, np.diff(boundaries))
        # Host-side candidate culling: a verified object strictly beyond the
        # query's current k-th bound can never enter the final top-k (the
        # bound only shrinks, and ties at the bound are kept).  This is what
        # a real device kernel does — select per query, ship k results — and
        # it keeps the host pool near k entries per query instead of every
        # verified candidate.  Answers and device accounting are unaffected.
        keep = dists <= pools.bounds(owner)
        if not keep.all():
            owner, obj_ids, dists = owner[keep], obj_ids[keep], dists[keep]
        pools.add(owner, obj_ids, dists)
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=total_verified,
        op_cost=metric.unit_cost,
        label="mknn-verify",
        host_time=host,
    )
    if total_verified:
        answers = int(pools.k_of(np.unique(leaf_q)).sum())
        needed = max(answers, 1) * RESULT_BYTES
        buffer_bytes = min(needed, max(RESULT_BYTES, device.available_bytes))
        alloc = device.allocate(buffer_bytes, "mknn-results", pool="workspace")
        device.transfer_to_host(needed, label="results-d2h")
        device.free(alloc)


def _descend(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    layer: int,
    cand_q: np.ndarray,
    cand_node: np.ndarray,
    pivot_dist: np.ndarray,
    tombstones: Optional[np.ndarray],
    mode: PruneMode,
    pools: _CandidatePools,
) -> None:
    """Recursive per-level expansion (the Knn_Q function of Algorithm 5)."""
    if len(cand_q) == 0:
        return
    if tree.is_leaf_level(layer):
        _verify_leaves(
            tree, objects, metric, device, queries, cand_q, cand_node, tombstones, pools
        )
        return

    limit_pairs = level_pair_limit(device, tree.height, layer, tree.node_capacity)
    if len(cand_q) > limit_pairs:
        for group in split_into_groups(cand_q, limit_pairs):
            _descend(
                tree,
                objects,
                metric,
                device,
                queries,
                layer,
                cand_q[group],
                cand_node[group],
                pivot_dist[group],
                tombstones,
                mode,
                pools,
            )
        return

    projected = len(cand_q) * tree.node_capacity
    with IntermediateTable(device, projected, label=f"mknn-level-{layer + 1}"):
        # Current per-pair bound d(q, k_cur); Lemma 5.2 prunes children whose
        # whole distance interval lies at or beyond the bound.
        bounds = pools.bounds(cand_q)
        # The device sorts the candidate distances per query to locate the
        # k-th bound (Algorithm 5 lines 11-12); charge that selection.
        device.launch_kernel(work_items=len(cand_q), op_cost=4.0, label="mknn-kth-bound")
        pair_index, child_ids = prune_children(
            tree, cand_node, pivot_dist, bounds, bounds, mode, device
        )
        next_q = cand_q[pair_index]

        if tree.is_leaf_level(layer + 1):
            next_pivot_dist = np.zeros(len(child_ids), dtype=np.float64)
        else:
            pivots = tree.pivot[child_ids]
            next_pivot_dist = pivot_distances_per_query(
                device, metric, objects, queries, next_q, pivots
            )
            pools.add(next_q, pivots, next_pivot_dist)

        _descend(
            tree,
            objects,
            metric,
            device,
            queries,
            layer + 1,
            next_q,
            child_ids,
            next_pivot_dist,
            tombstones,
            mode,
            pools,
        )


def batch_knn_query(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    k,
    exclude: Optional[set] = None,
    prune_mode: str | PruneMode = "two-sided",
) -> list[list[tuple[int, float]]]:
    """Answer a batch of metric k-nearest-neighbour queries exactly.

    Parameters
    ----------
    queries:
        The query objects.
    k:
        A single ``k`` shared by all queries or one per query.
    exclude:
        Object ids to ignore (tombstoned deletions).
    prune_mode:
        ``"two-sided"`` (default) or ``"one-sided"`` (ablation).

    Returns
    -------
    One list per query of ``(object_id, distance)`` pairs, sorted by distance
    then id, of length ``min(k, number of visible objects)``.
    """
    num_queries = len(queries)
    k_arr = broadcast_query_param(k, num_queries, "k", np.int64)
    if np.any(k_arr <= 0):
        raise QueryError("k must be positive for a kNN query")
    mode = prune_mode if isinstance(prune_mode, PruneMode) else PruneMode.from_name(prune_mode)

    if num_queries == 0 or tree.num_objects == 0:
        return [[] for _ in range(num_queries)]

    device.transfer_to_device(num_queries * ENTRY_BYTES)

    tombstones = tombstone_array(exclude)
    pools = _CandidatePools(num_queries, k_arr, tombstones)
    cand_q = np.arange(num_queries, dtype=np.int64)
    cand_node = np.zeros(num_queries, dtype=np.int64)

    if tree.height == 0:
        pivot_dist = np.zeros(num_queries, dtype=np.float64)
    else:
        root_pivots = np.full(num_queries, tree.pivot[0], dtype=np.int64)
        pivot_dist = pivot_distances_per_query(
            device, metric, objects, queries, cand_q, root_pivots
        )
        pools.add(cand_q, root_pivots, pivot_dist)

    _descend(
        tree,
        objects,
        metric,
        device,
        queries,
        0,
        cand_q,
        cand_node,
        pivot_dist,
        tombstones,
        mode,
        pools,
    )

    return pools.topk_all()
