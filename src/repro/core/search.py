"""Batch metric range (MRQ) and k-nearest-neighbour (MkNNQ) search over a GTS
tree — Algorithms 4 and 5.

Both algorithms are one level-synchronous, memory-aware descent that differs
only in each query's distance bound: a range query keeps its fixed radius,
a kNN query uses the distance of its current k-th candidate, which only
shrinks as candidates arrive.  Given a batch of queries the descent walks the
tree one level at a time for *all* queries simultaneously:

1. each live (query, node) pair knows ``d(q, N.pivot)``;
2. every child of every candidate node is tested against Lemma 5.1 / 5.2 in
   one kernel — a child survives when the query ball
   ``[d(q,p) - bound, d(q,p) + bound]`` intersects the child's
   ``[min_dis, max_dis]`` interval of distances to the parent pivot;
3. surviving internal children get their own pivot distance computed (one
   kernel, grouped per query) and become the next level's candidates; every
   pivot is a real indexed object, so it is offered as an answer too;
   surviving leaves go to verification, carrying ``d(q, parent pivot)``;
4. for kNN, those offers shrink the k-th bounds, so every child is re-tested
   under its query's new bound and the failures are dropped before the next
   level is sized (no kernel of its own: the compare rides the next level's
   k-th bound kernel, which is charged over the survivors);
5. before expanding a level, the projected intermediate-table size is checked
   against the per-level memory limit; if it does not fit the query batch is
   split into groups processed sequentially (the two-stage strategy).

Verification first drops every leaf candidate whose table-list distance
``obj_dis`` to its leaf's parent pivot puts it beyond its query's bound —
a kNN bound first tightened to the k-th smallest ``d(q, p) + obj_dis`` —
without reading a row (the compare rides the verify kernel, which is
charged over the survivors; skipped on a resident index whose metric
certifies bounds, see :func:`leaf_pivot_filter`).  It then computes the
real distances of the rest and offers them to the :class:`BoundedTriples`
accumulator, which keeps the triples within each query's bound; where the
metric certifies distance bounds, candidates provably beyond their query's
bound are dropped before the exact evaluation (DESIGN.md §8).

The descent reads one host object store.  A tiered index also hands the
search its device-read port (:class:`~repro.tier.store.PagedObjects`), and
the two kernels that read stored rows — pivot distances and leaf
verification — fault their id list through it first.  Leaf verification
runs in this order: the ``obj_dis`` test, the fault of its survivors, the
certified filter, the exact kernel; so a candidate the ``obj_dis`` test
drops is never faulted, and the certified filter never changes pager
traffic (DESIGN.md §7).  Each offer lists a
``(query, id)`` at most once, so a kNN offer is culled to the k-th smallest
distance of each query's own entries, and every refresh of the k-th bounds
trims the pool to ``k`` plus ties per query.  Range answers are exact; kNN
answers are exact in the usual tie-tolerant sense: the returned distances are
the true k smallest, and when several objects tie at the k-th distance an
arbitrary subset of the tied objects completes the answer.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..gpusim.device import Device
from ..metrics.base import Metric
from .nodes import TreeStructure
from .objectstore import ColumnarStore, gather_rows, segmented_distances
from .searchcommon import (
    ENTRY_BYTES,
    RESULT_BYTES,
    IntermediateTable,
    PruneMode,
    SearchBatch,
    dedupe_min_triples,
    interval_survivors,
    leaf_candidate_segments,
    level_pair_limit,
    pivot_distances_per_query,
    prune_children,
    query_ks,
    query_radii,
    segment_kth_smallest,
    split_into_groups,
    tombstone_array,
    tombstoned_mask,
    triples_to_answer_lists,
)

__all__ = ["BoundedTriples", "search", "batch_range_query", "batch_knn_query"]


class BoundedTriples:
    """Per-query answers as flat ``(query, id, distance)`` arrays under a bound.

    Give ``radii`` for a range batch (each query's bound is its fixed
    radius) or ``k`` for a kNN batch (the bound is the k-th smallest distance
    offered so far, ``inf`` until ``k`` distinct candidates are known).
    :meth:`offer` drops tombstoned objects and keeps the triples within
    their query's bound; a kNN offer first tightens each offered query's
    bound to the k-th smallest distance of its own entries.  Kept triples
    are appended; compaction — one ``np.lexsort`` keeping the minimum
    distance per (query, id) pair, skipped when a query-sorted offer lands
    in an empty pool — runs lazily when a kNN bound or the answers are
    read.  Refreshing the k-th bounds
    (:func:`~repro.core.searchcommon.segment_kth_smallest` over the
    compacted pool) also trims every triple beyond its query's new bound, so
    a kNN pool holds at most ``k`` plus ties per query between offers
    (DESIGN.md §8).
    """

    def __init__(
        self,
        num_queries: int,
        tombstones: Optional[np.ndarray],
        radii: Optional[np.ndarray] = None,
        k: Optional[np.ndarray] = None,
    ):
        self._num_queries = int(num_queries)
        self._tombstones = tombstones
        self._radii = radii
        #: per-query ``k`` of a kNN batch, None for a range batch
        self.k = k
        #: kernel-label prefix of the query kind
        self.label = "mrq" if k is None else "mknn"
        # compacted pool: sorted by query, unique per (query, id)
        self._cq = np.zeros(0, dtype=np.int64)
        self._cid = np.zeros(0, dtype=np.int64)
        self._cd = np.zeros(0, dtype=np.float64)
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._kth: Optional[np.ndarray] = None

    def _compact(self) -> None:
        if not self._pending:
            return
        if len(self._pending) == 1 and len(self._cq) == 0:
            qs, ids, dists = self._pending[0]
            if len(qs) < 2 or (qs[1:] >= qs[:-1]).all():
                # an offer lists each (query, id) at most once, so a
                # query-sorted one merged into an empty pool is compact
                self._pending = []
                self._cq, self._cid, self._cd = qs, ids, dists
                return
        qs = np.concatenate([self._cq] + [p[0] for p in self._pending])
        ids = np.concatenate([self._cid] + [p[1] for p in self._pending])
        dists = np.concatenate([self._cd] + [p[2] for p in self._pending])
        self._pending = []
        self._cq, self._cid, self._cd = dedupe_min_triples(qs, ids, dists)

    def _kth_bounds(self) -> np.ndarray:
        if self._kth is None:
            self._compact()
            edges = np.searchsorted(self._cq, np.arange(self._num_queries + 1, dtype=np.int64))
            bounds = segment_kth_smallest(self._cd, edges, self.k)
            # a triple beyond its query's k-th distance can no longer be an
            # answer, and the bound only shrinks from here
            keep = self._cd <= bounds.repeat(edges[1:] - edges[:-1])
            self._cq, self._cid, self._cd = self._cq[keep], self._cid[keep], self._cd[keep]
            self._kth = bounds
        return self._kth

    def bounds(self, query_indices: np.ndarray) -> np.ndarray:
        """Current bound of each listed query (radius, or k-th distance)."""
        if self.k is None:
            return self._radii[query_indices]
        return self._kth_bounds()[query_indices]

    def _knn_limits(self, query_indices: np.ndarray, dists: np.ndarray) -> np.ndarray:
        """Per-entry bound of a kNN offer.

        For each run of consecutive entries of one query: the smaller of the
        query's current bound and the k-th smallest distance in the run.
        The engine's offers are sorted by query, so a run is all of a
        query's entries; in any order a run still lists ``k`` distinct
        objects when it reaches ``k`` entries, so the rule stays exact.
        """
        starts = (query_indices[1:] != query_indices[:-1]).nonzero()[0] + 1
        boundaries = np.concatenate(([0], starts, [len(query_indices)]))
        owners = query_indices[boundaries[:-1]]
        counts = boundaries[1:] - boundaries[:-1]
        ks = self.k[owners]
        # a run of at most k entries cannot tighten its bound: asking for
        # one more entry than it holds skips its selection
        own = segment_kth_smallest(dists, boundaries, np.where(counts > ks, ks, counts + 1))
        return np.minimum(self._kth_bounds()[owners], own).repeat(counts)

    def offer(self, query_indices, obj_ids, dists) -> int:
        """Keep the live triples with ``dist <= bound``; returns how many.

        An offer lists each ``(query, id)`` at most once; every source
        (pivot levels, leaf verification, the cache scan) offers that way.
        For kNN the bound is exact culling: a query's bound is its current
        k-th distance tightened to the k-th smallest distance among its own
        live entries in this offer — those are ``k`` distinct objects, so
        the final k-th distance cannot exceed it.  A candidate strictly
        beyond that can never enter the top ``k`` nor move the k-th
        distance; ties at the bound are kept.
        """
        query_indices = np.asarray(query_indices, dtype=np.int64)
        obj_ids = np.asarray(obj_ids, dtype=np.int64)
        dists = np.asarray(dists, dtype=np.float64)
        dead = tombstoned_mask(obj_ids, self._tombstones)
        if dead is not None:
            live = ~dead
            query_indices, obj_ids, dists = query_indices[live], obj_ids[live], dists[live]
        if len(obj_ids) == 0:
            return 0
        if self.k is None:
            keep = dists <= self._radii[query_indices]
        else:
            keep = dists <= self._knn_limits(query_indices, dists)
        if not keep.all():
            query_indices, obj_ids, dists = query_indices[keep], obj_ids[keep], dists[keep]
        if len(obj_ids):
            self._pending.append((query_indices, obj_ids, dists))
            self._kth = None
        return len(obj_ids)

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The compacted pool as ``(query, id, distance)`` arrays, sorted by
        query; a kNN pool after a last refresh of the bounds trims it to
        ``k`` plus ties per query (every triple at or under the k-th distance).
        """
        if self.k is None:
            self._compact()
        else:
            self._kth_bounds()
        return self._cq, self._cid, self._cd

    def answers(self) -> list[list[tuple[int, float]]]:
        """Per-query ``(object_id, distance)`` lists sorted by (distance, id),
        kNN lists truncated to each query's ``k``."""
        return triples_to_answer_lists(*self.triples(), self._num_queries, k=self.k)


#: Element budget of one block of the bound matrices (queries x rows).
CERTIFY_BLOCK_ELEMENTS = 1 << 18

#: Share of the store's rows at or above which a filter call bounds against
#: the whole store matrix (a view) instead of gathering its distinct rows:
#: about where the view's extra bound columns cost what the gather's sort
#: and copy save (``benchmarks/certified_crossover.py``, DESIGN.md §8).
STORE_VIEW_SHARE = 0.5


def _spans_store(obj_ids: np.ndarray, num_rows: int) -> bool:
    """Whether the distinct ``obj_ids`` are at least ``STORE_VIEW_SHARE`` of the store.

    Distinct rows never outnumber pairs, so a call with fewer pairs than
    that is answered without touching the store; only a call that may
    qualify marks its rows in one boolean array (no sort).
    """
    need = STORE_VIEW_SHARE * num_rows
    if len(obj_ids) < need:
        return False
    mark = np.zeros(num_rows, dtype=bool)
    mark[obj_ids] = True
    return np.count_nonzero(mark) >= need


def _certifies(metric: Metric) -> bool:
    """Whether ``metric`` certifies distance bounds (overrides ``distance_bounds``)."""
    return type(metric).distance_bounds is not Metric.distance_bounds


def leaf_pivot_filter(batch: SearchBatch) -> bool:
    """Whether leaf verification runs the table list's ``obj_dis`` test.

    Everywhere except on a resident index whose metric certifies distance
    bounds.  There :func:`_certified_survivors` bounds every candidate with
    one BLAS product, a bound far tighter than ``obj_dis`` gives (over
    2,000 300-d angular rows the ``obj_dis`` test drops 3-4% of the
    candidates), and no device fault is there to save, so the test would
    only add host passes.  A tiered index runs it: every candidate it drops
    is a read the port never faults.
    """
    return batch.port is not None or not _certifies(batch.metric)


def _certified_survivors(
    metric: Metric,
    objects: Sequence,
    query_objects: Sequence,
    boundaries: np.ndarray,
    obj_ids: np.ndarray,
    results: BoundedTriples,
    unique_queries: np.ndarray,
) -> Optional[np.ndarray]:
    """Mask of the candidate pairs that may lie within their query's bound.

    When the call's distinct candidate rows are at least
    ``STORE_VIEW_SHARE`` of the store (:func:`_spans_store`),
    :meth:`Metric.distance_bounds` runs against the store matrix itself — a
    view, with the store's whole digest — and the bounds are looked up by
    object id; otherwise the distinct rows (``np.unique``) are gathered once
    (``ColumnarStore.gather``) and looked up by their rank.  Either way the
    bounds come in blocks of whole queries and each pair's ``(lo, hi)`` is
    one flat ``np.take``.  A pair is dropped only when its certified lower
    bound exceeds the query's bound: the radius, or for kNN the current
    k-th bound tightened to the k-th smallest upper bound among the query's
    own (distinct) candidates — at least ``k`` of them lie within it, so a
    pair beyond it can neither enter the top ``k`` nor move the k-th
    distance.  The two sides may round a GEMM entry differently; that only
    moves a pair between dropped and recomputed exactly (DESIGN.md §8).
    Returns None when the filter does not apply: a metric without bounds or
    a list store (generic objects keep the exact path).
    """
    if not _certifies(metric):
        return None
    if not isinstance(objects, ColumnarStore):
        return None
    num_segments = len(boundaries) - 1
    digest = objects.metric_digest(metric)
    if _spans_store(obj_ids, len(objects)):
        row_matrix, row_digest, columns = objects.matrix, digest, obj_ids
    else:
        rows, columns = np.unique(obj_ids, return_inverse=True)
        row_matrix = objects.gather(rows)
        row_digest = None if digest is None else digest[rows]
    num_rows = len(row_matrix)
    query_matrix = np.asarray(query_objects)
    counts = boundaries[1:] - boundaries[:-1]
    knn = results.k is not None
    lo = np.empty(len(obj_ids), dtype=np.float64)
    hi = np.empty(len(obj_ids), dtype=np.float64) if knn else None
    step = max(1, CERTIFY_BLOCK_ELEMENTS // num_rows)
    for first in range(0, num_segments, step):
        last = min(first + step, num_segments)
        # only a kNN limit reads the upper bounds (``upper``)
        bounds = metric.distance_bounds(query_matrix[first:last], row_matrix, row_digest, knn)
        if bounds is None:
            return None
        start, end = int(boundaries[first]), int(boundaries[last])
        # flat (local query, row) positions in the C-ordered bound blocks
        flat = np.repeat(np.arange(0, (last - first) * num_rows, num_rows), counts[first:last])
        flat += columns[start:end]
        np.take(bounds[0], flat, out=lo[start:end])
        if knn:
            np.take(bounds[1], flat, out=hi[start:end])
    limit = results.bounds(unique_queries)
    if knn:
        limit = np.minimum(limit, segment_kth_smallest(hi, boundaries, results.k[unique_queries]))
    return lo <= np.repeat(limit, counts)


def _verify_leaves(
    batch: SearchBatch,
    leaf_q: np.ndarray,
    leaf_node: np.ndarray,
    parent_dist: Optional[np.ndarray],
) -> None:
    """Compute real distances for the candidates of the surviving leaves.

    One fused pass: the surviving leaves' table-list slices are expanded into
    per-query candidate segments, and — given ``parent_dist``, each pair's
    ``d(q, p)`` to the pivot of the leaf's parent (None when the root is the
    only leaf), where :func:`leaf_pivot_filter` applies — every candidate
    whose table-list distance ``obj_dis`` proves it beyond its query's
    bound is dropped before any row is read
    (:func:`~repro.core.searchcommon.leaf_candidate_segments`).  A tiered
    index faults only the survivors through its port, in slot order.  Where
    the metric certifies distance bounds (:func:`_certified_survivors`),
    pairs proven beyond their query's bound are dropped next; the rest are
    gathered, evaluated with the segmented exact kernel — so every reported
    distance is bitwise the reference value — and offered to the
    accumulator in one bulk add.  One verify kernel is charged, over every
    pair that passed the ``obj_dis`` test (the certified filter's dropped
    pairs included, which also still count in the metric's pair counter);
    like a tombstoned candidate, a candidate the test drops is read and
    compared in that kernel but costs it no distance work.
    """
    if len(leaf_q) == 0:
        return
    tree, metric, device, results = batch.tree, batch.metric, batch.device, batch.results
    host_start = time.perf_counter()
    filtered = parent_dist is not None and leaf_pivot_filter(batch)
    unique_queries, boundaries, obj_ids = leaf_candidate_segments(
        tree,
        leaf_q,
        leaf_node,
        batch.tombstones,
        slot_of=None if batch.port is None else batch.port.slot_of,
        parent_dist=parent_dist if filtered else None,
        bounds=results.bounds(leaf_q) if filtered else None,
        k=results.k,
        distance_error=metric.distance_error(),
    )
    total_verified = len(obj_ids)
    total_hits = 0
    if total_verified:
        # tiered indexes get each query's candidates in physical-slot order:
        # answers are order-insensitive (keyed by id) and a slot-sorted
        # fault touches each leaf-clustered block as one run
        if batch.port is not None:
            batch.port.fault(obj_ids)
        query_objects = gather_rows(batch.queries, unique_queries)
        owner = np.repeat(unique_queries, boundaries[1:] - boundaries[:-1])
        keep = _certified_survivors(
            metric, batch.store, query_objects, boundaries, obj_ids, results, unique_queries
        )
        settled = 0
        if keep is not None:
            kept = np.flatnonzero(keep)
            owner, obj_ids = owner[kept], obj_ids[kept]
            # a segment's new start is the number of survivors before it
            boundaries = np.searchsorted(kept, boundaries)
            settled = total_verified - len(obj_ids)
        dists = segmented_distances(
            metric, batch.store, query_objects, boundaries, obj_ids, settled_pairs=settled
        )
        total_hits = results.offer(owner, obj_ids, dists)
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=total_verified,
        op_cost=metric.unit_cost,
        label=f"{results.label}-verify",
        host_time=host,
    )
    # Result buffer: a range batch ships its hits, a kNN batch k slots for
    # every query that reached a leaf (``np.unique(leaf_q)`` also counts the
    # queries whose candidates were all tombstoned or filtered), no query
    # more slots than the tree has objects.  Results are streamed back to
    # the host in chunks, so the buffer never needs to exceed the memory
    # that is still available on the device.
    if results.k is None:
        slots = total_hits
    elif total_verified:
        slots = max(int(np.minimum(results.k[np.unique(leaf_q)], tree.num_objects).sum()), 1)
    else:
        slots = 0
    if slots:
        needed = slots * RESULT_BYTES
        buffer_bytes = min(needed, max(RESULT_BYTES, device.available_bytes))
        alloc = device.allocate(buffer_bytes, f"{results.label}-results", pool="workspace")
        device.transfer_to_host(needed, label="results-d2h")
        device.free(alloc)


def _descend(
    batch: SearchBatch,
    layer: int,
    cand_q: np.ndarray,
    cand_node: np.ndarray,
    pivot_dist: Optional[np.ndarray],
) -> None:
    """Recursive per-level expansion (Range_Q of Algorithm 4, Knn_Q of Algorithm 5).

    ``pivot_dist`` is each pair's ``d(q, pivot)`` of its node at an internal
    level, and ``d(q, parent pivot)`` at the leaf level (None when the root
    is the only leaf).
    """
    if len(cand_q) == 0:
        return
    tree, device, results = batch.tree, batch.device, batch.results
    if tree.is_leaf_level(layer):
        _verify_leaves(batch, cand_q, cand_node, pivot_dist)
        return

    # Two-stage memory strategy: split the batch when the projected
    # intermediate table would exceed the per-level limit.
    limit_pairs = level_pair_limit(device, tree.height, layer, tree.node_capacity)
    if len(cand_q) > limit_pairs:
        for group in split_into_groups(cand_q, limit_pairs):
            _descend(batch, layer, cand_q[group], cand_node[group], pivot_dist[group])
        return

    projected = len(cand_q) * tree.node_capacity
    with IntermediateTable(device, projected, label=f"{results.label}-level-{layer + 1}"):
        # Per-pair bound: the radius, or the current k-th distance d(q, k_cur).
        bounds = results.bounds(cand_q)
        if results.k is not None:
            # The device sorts the candidate distances per query to locate
            # the k-th bound (Algorithm 5 lines 11-12); charge that selection.
            device.launch_kernel(work_items=len(cand_q), op_cost=4.0, label="mknn-kth-bound")
        error = batch.metric.distance_error()
        pair_index, child_ids = prune_children(
            tree, cand_node, pivot_dist, bounds, batch.mode, device, error
        )
        next_q = cand_q[pair_index]
        parent_dist = pivot_dist[pair_index]

        if tree.is_leaf_level(layer + 1):
            _descend(batch, layer + 1, next_q, child_ids, parent_dist)
            return
        pivots = tree.pivot[child_ids]
        next_pivot_dist = pivot_distances_per_query(batch, next_q, pivots)
        # A pivot is itself an indexed object: offer it as an answer.
        # Nothing was offered since ``bounds`` was read, so a kNN offer
        # reuses the cached k-th bounds.
        results.offer(next_q, pivots, next_pivot_dist)
        if results.k is not None:
            # Those offers shrank the k-th bounds: re-test every child's
            # interval under them before the next level's table is sized.
            keep = interval_survivors(
                tree, child_ids, parent_dist, results.bounds(next_q), batch.mode, error
            )
            next_q, child_ids, next_pivot_dist = (
                next_q[keep],
                child_ids[keep],
                next_pivot_dist[keep],
            )
        _descend(batch, layer + 1, next_q, child_ids, next_pivot_dist)


def search(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    exclude: Optional[set],
    prune_mode: str | PruneMode,
    radii: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
    port=None,
) -> BoundedTriples:
    """Search the tree for a batch under validated ``radii`` or ``k``.

    ``objects`` is the host object store; a tiered index passes its
    device-read ``port`` too.  Returns the batch's accumulator before
    :meth:`BoundedTriples.answers` is read, so further candidate sources
    (the cache table) can still offer to it; an empty batch or tree returns
    an empty accumulator.
    """
    num_queries = len(queries)
    mode = prune_mode if isinstance(prune_mode, PruneMode) else PruneMode.from_name(prune_mode)
    tombstones = tombstone_array(exclude)
    results = BoundedTriples(num_queries, tombstones, radii=radii, k=k)
    if num_queries == 0 or tree.num_objects == 0:
        return results
    batch = SearchBatch(tree, objects, port, metric, device, queries, tombstones, mode, results)

    # Load the queries onto the device (Section 5.1: queries are copied from
    # the CPU to the GPU before processing).
    device.transfer_to_device(num_queries * ENTRY_BYTES)

    cand_q = np.arange(num_queries, dtype=np.int64)
    cand_node = np.zeros(num_queries, dtype=np.int64)

    if tree.height == 0:
        # Degenerate tree: the root is the single (over-full) leaf, and no
        # pivot distance bounds its objects.
        pivot_dist = None
    else:
        root_pivots = np.full(num_queries, tree.pivot[0], dtype=np.int64)
        pivot_dist = pivot_distances_per_query(batch, cand_q, root_pivots)
        results.offer(cand_q, root_pivots, pivot_dist)

    _descend(batch, 0, cand_q, cand_node, pivot_dist)
    return results


def batch_range_query(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    radii,
    exclude: Optional[set] = None,
    prune_mode: str | PruneMode = "two-sided",
) -> list[list[tuple[int, float]]]:
    """Answer a batch of metric range queries exactly.

    Parameters
    ----------
    queries:
        The query objects (same domain as the indexed objects).
    radii:
        A scalar radius shared by all queries or one radius per query.
    exclude:
        Object ids to ignore (tombstoned deletions).
    prune_mode:
        ``"two-sided"`` (default) or ``"one-sided"`` (paper-literal ablation).

    Returns
    -------
    One result list per query: ``(object_id, distance)`` pairs sorted by
    distance then id, all within the query's radius.
    """
    radii_arr = query_radii(radii, len(queries))
    return search(
        tree, objects, metric, device, queries, exclude, prune_mode, radii=radii_arr
    ).answers()


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
    k_arr = query_ks(k, len(queries))
    return search(tree, objects, metric, device, queries, exclude, prune_mode, k=k_arr).answers()
