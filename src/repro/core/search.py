"""Batch metric range (MRQ) and k-nearest-neighbour (MkNNQ) search over a GTS
tree — Algorithms 4 and 5.

Both algorithms are one level-synchronous, memory-aware descent that differs
only in each query's distance bound: a range query keeps its fixed radius,
a kNN query uses the distance of its current k-th candidate, which only
shrinks as candidates arrive.  The descent walks a **forest** — one tree
(:func:`search`, a :class:`~repro.core.gts.GTS`) or every shard's tree of a
:class:`~repro.shard.ShardedGTS` (:func:`search_forest`) — one level at a
time for *all* queries of *all* trees simultaneously:

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

Over several trees the node and table arrays are stacked
(:class:`~repro.core.searchcommon.Forest`) and the accumulator holds one
virtual query ``t * Q + q`` per tree and query, so every tree keeps its own
bounds and pruning is exactly a lone tree's.  The pair lists stay sorted by
virtual query, so each tree's pairs are one slice at every level: the
bounds, the child test, the offers, the kNN re-test and the leaf
candidates' expansion run once per level over all trees, while everything
that reads a tree's store, port or device — pivot and verify kernels,
faults, the certified filter, allocations and every charge — runs per tree
on its slice, so each device sees exactly the calls a search of its tree
alone makes.  A tree whose leaf level comes first verifies there while the
others descend, and the two-stage split is decided per tree against its
own device (DESIGN.md §6).

A batch is opened by :func:`open_batch` and descended by
:func:`descend_forest`.  The approximate searches (:mod:`repro.approx`)
open their batches the same way, choose their own (query, node) pairs and
hand the chosen leaves to :func:`verify_leaves`, so they share the exact
search's kernels, tombstone handling and accumulator.

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
leaf verification faults its id list through it first; the pivot-distance
kernels fault nothing, since a tiered tree's internal-node pivots are its
store's pinned prefix, staged on the device at install.  Leaf verification
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
    Forest,
    IntermediateTable,
    PruneMode,
    SearchBatch,
    TreeBatch,
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

__all__ = [
    "BoundedTriples",
    "open_batch",
    "descend_forest",
    "verify_leaves",
    "search_forest",
    "search",
    "batch_range_query",
    "batch_knn_query",
]


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

    def offer(self, query_indices, obj_ids, dists) -> np.ndarray:
        """Keep the live triples with ``dist <= bound``; returns the query
        index of each kept triple, in offer order.

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
            return query_indices
        if self.k is None:
            keep = dists <= self._radii[query_indices]
        else:
            keep = dists <= self._knn_limits(query_indices, dists)
        if not keep.all():
            query_indices, obj_ids, dists = query_indices[keep], obj_ids[keep], dists[keep]
        if len(obj_ids):
            self._pending.append((query_indices, obj_ids, dists))
            self._kth = None
        return query_indices

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
    return batch.tiered or not _certifies(batch.metric)


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


#: Candidate budget of one fused leaf expansion over several trees.  Fusing
#: saves per-call overhead, which dominates small expansions; past this
#: size the expansion's arrays outgrow the CPU caches and cost more than a
#: call per tree, so larger ones expand their trees in rounds.
FUSED_CANDIDATES = 1 << 16


def _candidate_rounds(forest: Forest, leaf_node: np.ndarray, parts: list) -> list:
    """The trees' leaf pairs packed, consecutive trees together, into rounds
    of at most ``FUSED_CANDIDATES`` candidates (a larger tree is a round of
    its own)."""
    ends = np.cumsum(forest.size[leaf_node])[[end - 1 for _, _, end in parts]].tolist()
    rounds, current, size, before = [], [], 0, 0
    for part, end in zip(parts, ends):
        count, before = end - before, end
        if current and size + count > FUSED_CANDIDATES:
            rounds.append(current)
            current, size = [], 0
        current.append(part)
        size += count
    rounds.append(current)
    return rounds


def _cat(arrays: list) -> np.ndarray:
    """One array from per-tree pieces (the piece itself when there is one)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _columns(rows: list) -> tuple:
    """Per-tree ``(query, id, distance)`` pieces as three arrays."""
    if len(rows) == 1:
        return rows[0]
    return tuple(np.concatenate(column) for column in zip(*rows))


def _part_rows(parts: list) -> np.ndarray:
    """Positions of the listed ``(tree, start, end)`` slices of a pair list."""
    return _cat([np.arange(start, end, dtype=np.int64) for _, start, end in parts])


def _rebased(parts: list) -> list:
    """The listed slices' positions once only they are kept, in order."""
    out, start = [], 0
    for tree, lo, hi in parts:
        out.append((tree, start, start + hi - lo))
        start += hi - lo
    return out


def _tree_edges(parts: list, num_queries: int) -> list:
    """The first virtual query of each listed tree, then one past the last
    tree's: the edges that split a query-sorted array by tree."""
    return [tree * num_queries for tree, _, _ in parts] + [(parts[-1][0] + 1) * num_queries]


def _local(values: np.ndarray, offset: int) -> np.ndarray:
    """Stacked ids or virtual queries of one tree made its own."""
    return values - offset if offset else values


def verify_leaves(
    batch: SearchBatch,
    leaf_q: np.ndarray,
    leaf_node: np.ndarray,
    parent_dist: Optional[np.ndarray] = None,
) -> None:
    """Compute real distances for the candidates of the surviving leaves.

    ``leaf_q`` are virtual queries in ascending order (so sorted by tree)
    and ``leaf_node`` stacked leaf slots, a query listing each leaf at most
    once: the descent's leaf pairs, or the (query, leaf) pairs an
    approximate search chose (:mod:`repro.approx`).  One fused pass over
    every tree (over rounds of trees when the leaves hold more than
    ``FUSED_CANDIDATES`` candidates): the surviving leaves' table-list
    slices are expanded into per-query candidate segments, and — given
    ``parent_dist`` (None for an approximate search), each pair's
    ``d(q, p)`` to the pivot of the leaf's parent (None when the roots are
    the only leaves), where :func:`leaf_pivot_filter` applies — every
    candidate whose table-list distance ``obj_dis`` proves it beyond its
    query's bound is dropped before any row is read
    (:func:`~repro.core.searchcommon.leaf_candidate_segments`).  Then, per
    tree: a tiered tree faults only its survivors through its port, in slot
    order; where the metric certifies distance bounds
    (:func:`_certified_survivors`), pairs proven beyond their query's bound
    are dropped next; the rest are gathered and evaluated with the
    segmented exact kernel — so every reported distance is bitwise the
    reference value.  All trees' distances are offered to the accumulator
    in one bulk add.  Each tree's device is charged one verify kernel over
    every pair of that tree that passed the ``obj_dis`` test (the certified
    filter's dropped pairs included, which also still count in the
    metric's pair counter); like a tombstoned candidate, a candidate the
    test drops is read and compared in that kernel but costs it no
    distance work.
    """
    if len(leaf_q) == 0:
        return
    forest, metric, results = batch.forest, batch.metric, batch.results
    num_queries = batch.num_queries
    filtered = parent_dist is not None and leaf_pivot_filter(batch)
    bounds = results.bounds(leaf_q) if filtered else None
    error = metric.distance_error()
    parts = batch.parts(leaf_q)
    verified, host, offers = [], [], []
    for chunk in (parts,) if len(parts) == 1 else _candidate_rounds(forest, leaf_node, parts):
        chunk_q, chunk_node, chunk_dist, chunk_bounds = leaf_q, leaf_node, parent_dist, bounds
        if len(chunk) < len(parts):
            rows = slice(chunk[0][1], chunk[-1][2])
            chunk_q, chunk_node = leaf_q[rows], leaf_node[rows]
            if filtered:
                chunk_dist, chunk_bounds = parent_dist[rows], bounds[rows]
        unique_queries, boundaries, obj_ids = leaf_candidate_segments(
            forest,
            chunk_q,
            chunk_node,
            batch.tombstones,
            slot_of=forest.slot_of,
            parent_dist=chunk_dist if filtered else None,
            bounds=chunk_bounds,
            k=results.k,
            distance_error=error,
        )
        if len(chunk) > 1:
            # each tree's segments are one run of the query-sorted segments
            segment_edges = np.searchsorted(
                unique_queries, _tree_edges(chunk, num_queries)
            ).tolist()
        for i, (tree, _, _) in enumerate(chunk):
            if len(chunk) == 1:
                queries, edges, ids = unique_queries, boundaries, obj_ids
            else:
                first, last = segment_edges[i], segment_edges[i + 1]
                start, end = int(boundaries[first]), int(boundaries[last])
                queries, edges, ids = (
                    unique_queries[first:last],
                    boundaries[first : last + 1] - start,
                    obj_ids[start:end],
                )
            verified.append(len(ids))
            if len(ids) == 0:
                host.append(0.0)
                continue
            host_start = time.perf_counter()
            member, id_off = batch.members[tree], forest.id_off[tree]
            ids = _local(ids, id_off)
            # tiered trees get each query's candidates in physical-slot
            # order: answers are order-insensitive (keyed by id) and a
            # slot-sorted fault touches each leaf-clustered block as one run
            if member.port is not None:
                member.port.fault(ids)
            query_objects = gather_rows(batch.queries, _local(queries, tree * num_queries))
            owner = np.repeat(queries, edges[1:] - edges[:-1])
            keep = _certified_survivors(
                metric, member.store, query_objects, edges, ids, results, queries
            )
            settled = 0
            if keep is not None:
                kept = np.flatnonzero(keep)
                owner, ids = owner[kept], ids[kept]
                # a segment's new start is the number of survivors before it
                edges = np.searchsorted(kept, edges)
                settled = verified[-1] - len(ids)
            dists = segmented_distances(
                metric, member.store, query_objects, edges, ids, settled_pairs=settled
            )
            offers.append((owner, ids + id_off if id_off else ids, dists))
            host.append(time.perf_counter() - host_start)
    hits = results.offer(*_columns(offers)) if offers else leaf_q[:0]
    # Result buffer: a range batch ships its hits, a kNN batch k slots for
    # every query that reached a leaf of the tree (counting the queries
    # whose candidates were all tombstoned or filtered), no query more slots
    # than the tree has objects.  Results are streamed back to the host in
    # chunks, so the buffer never needs to exceed the memory that is still
    # available on the device.
    if results.k is None:
        slots = (
            [len(hits)]
            if len(parts) == 1
            else np.diff(np.searchsorted(hits, _tree_edges(parts, num_queries))).tolist()
        )
    else:
        # the distinct queries of the query-sorted pairs: one adjacent compare
        slots = [0] * len(parts)
        if any(verified):
            reached = np.empty(len(leaf_q), dtype=bool)
            reached[0] = True
            np.not_equal(leaf_q[1:], leaf_q[:-1], out=reached[1:])
            reached = leaf_q[reached]
            reached_edges = [0, len(reached)]
            if len(parts) > 1:
                reached_edges = np.searchsorted(reached, _tree_edges(parts, num_queries)).tolist()
            for i, (tree, _, _) in enumerate(parts):
                if verified[i]:
                    own = results.k[reached[reached_edges[i] : reached_edges[i + 1]]]
                    cap = forest.trees[tree].num_objects
                    slots[i] = max(int(np.minimum(own, cap).sum()), 1)
    for i, (tree, _, _) in enumerate(parts):
        device = batch.members[tree].device
        device.launch_kernel(
            work_items=verified[i],
            op_cost=metric.unit_cost,
            label=f"{results.label}-verify",
            host_time=host[i],
        )
        if slots[i]:
            needed = slots[i] * RESULT_BYTES
            buffer_bytes = min(needed, max(RESULT_BYTES, device.available_bytes))
            alloc = device.allocate(buffer_bytes, f"{results.label}-results", pool="workspace")
            device.transfer_to_host(needed, label="results-d2h")
            device.free(alloc)


def _pivot_distances(batch: SearchBatch, cand_q: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Each pair's ``d(q, pivot)``: one fused kernel per tree over its slice.

    ``pivots`` are stacked ids; each tree's kernel reads its own store
    (:func:`pivot_distances_per_query`).
    """
    parts = batch.parts(cand_q)
    if len(parts) == 1 and parts[0][0] == 0:
        return pivot_distances_per_query(batch.members[0], cand_q, pivots)
    out = []
    for tree, start, end in parts:
        out.append(
            pivot_distances_per_query(
                batch.members[tree],
                _local(cand_q[start:end], tree * batch.num_queries),
                _local(pivots[start:end], batch.forest.id_off[tree]),
            )
        )
    return _cat(out)


def _descend(
    batch: SearchBatch,
    layer: int,
    cand_q: np.ndarray,
    cand_node: np.ndarray,
    pivot_dist: Optional[np.ndarray],
) -> None:
    """Recursive per-level expansion (Range_Q of Algorithm 4, Knn_Q of Algorithm 5).

    ``cand_q`` are virtual queries sorted by tree and ``cand_node`` stacked
    nodes at ``layer``.  ``pivot_dist`` is each pair's ``d(q, pivot)`` of
    its node at an internal level, and ``d(q, parent pivot)`` at the leaf
    level (None when every root is a leaf).  A tree whose leaf level this
    is verifies here while the others descend.  When a tree's pairs exceed
    its device's per-level limit it splits them into groups, and round
    ``g`` re-enters this level with group ``g`` of every tree that has one,
    so each device sees its groups depth-first, one after the other.
    """
    if len(cand_q) == 0:
        return
    forest = batch.forest
    parts = batch.parts(cand_q)
    if layer >= forest.min_height:
        # trees end at this level: they verify, the others descend
        heights = forest.heights
        inner = [] if layer >= forest.max_height else [p for p in parts if heights[p[0]] > layer]
        if not inner:
            verify_leaves(batch, cand_q, cand_node, pivot_dist if layer else None)
            return
        if len(inner) < len(parts):
            rows = _part_rows([part for part in parts if heights[part[0]] <= layer])
            leaf_dist = pivot_dist[rows] if layer else None
            verify_leaves(batch, cand_q[rows], cand_node[rows], leaf_dist)
            rows = _part_rows(inner)
            cand_q, cand_node, pivot_dist = cand_q[rows], cand_node[rows], pivot_dist[rows]
            parts = _rebased(inner)

    # Two-stage memory strategy: a tree splits its pairs when the projected
    # intermediate table would exceed its device's per-level limit.
    nc = forest.node_capacity
    limits, split = [], False
    for tree, start, end in parts:
        limit = level_pair_limit(batch.members[tree].device, forest.heights[tree], layer, nc)
        limits.append(limit)
        split = split or end - start > limit
    if split:
        groups = [
            [group + start for group in split_into_groups(cand_q[start:end], limit)]
            if end - start > limit
            else [np.arange(start, end, dtype=np.int64)]
            for (_, start, end), limit in zip(parts, limits)
        ]
        for round_ in range(max(len(tree_groups) for tree_groups in groups)):
            rows = _cat([tg[round_] for tg in groups if round_ < len(tg)])
            _descend(batch, layer, cand_q[rows], cand_node[rows], pivot_dist[rows])
        return
    _expand(batch, layer, cand_q, cand_node, pivot_dist, parts)


def _expand(
    batch: SearchBatch,
    layer: int,
    cand_q: np.ndarray,
    cand_node: np.ndarray,
    pivot_dist: np.ndarray,
    parts: list,
) -> None:
    """Expand one internal level of every tree in ``parts`` and descend.

    Each tree allocates its own intermediate table and is charged its own
    kernels over its own pairs; the bounds, the child test, the pivot
    offers and the kNN re-test are one call over all trees.
    """
    forest, results, members = batch.forest, batch.results, batch.members
    nc = forest.node_capacity
    label = f"{results.label}-level-{layer + 1}"
    tables = []
    try:
        for tree, start, end in parts:
            tables.append(IntermediateTable(members[tree].device, (end - start) * nc, label))
        # Per-pair bound: the radius, or the current k-th distance d(q, k_cur).
        bounds = results.bounds(cand_q)
        if results.k is not None:
            # The device sorts the candidate distances per query to locate
            # the k-th bound (Algorithm 5 lines 11-12); charge that selection.
            for tree, start, end in parts:
                members[tree].device.launch_kernel(
                    work_items=end - start, op_cost=4.0, label="mknn-kth-bound"
                )
        error = batch.metric.distance_error()
        child_base = forest.child_base
        first_child = cand_node * nc + 1 if child_base is None else child_base[cand_node]
        pair_index, child_ids = prune_children(
            forest, first_child, pivot_dist, bounds, batch.mode, error
        )
        for tree, start, end in parts:
            members[tree].device.launch_kernel(
                work_items=(end - start) * nc, op_cost=2.0, label="prune-children"
            )
        next_q = cand_q[pair_index]
        next_dist = pivot_dist[pair_index]
        # Children that are internal nodes get their own pivot distance;
        # children that are leaves keep d(q, parent pivot) for the table
        # list's obj_dis test.
        inner, rows = len(next_q) > 0 and layer + 1 < forest.max_height, None
        if inner and layer + 1 >= forest.min_height:
            next_parts = batch.parts(next_q)
            inner_parts = [p for p in next_parts if forest.heights[p[0]] > layer + 1]
            inner = bool(inner_parts)
            if inner and len(inner_parts) < len(next_parts):
                rows = _part_rows(inner_parts)
        if inner:
            if rows is None:
                sub_q, sub_child, parent_dist = next_q, child_ids, next_dist
            else:
                sub_q, sub_child, parent_dist = next_q[rows], child_ids[rows], next_dist[rows]
            pivots = forest.pivot[sub_child]
            sub_dist = _pivot_distances(batch, sub_q, pivots)
            # A pivot is itself an indexed object: offer it as an answer.
            # Nothing was offered since ``bounds`` was read, so a kNN offer
            # reuses the cached k-th bounds.
            results.offer(sub_q, pivots, sub_dist)
            if rows is None:
                next_dist = sub_dist
            else:
                next_dist = next_dist.copy()
                next_dist[rows] = sub_dist
            if results.k is not None:
                # Those offers shrank the k-th bounds: re-test every child's
                # interval under them before the next level's table is sized.
                keep = interval_survivors(
                    forest, sub_child, parent_dist, results.bounds(sub_q), batch.mode, error
                )
                if rows is not None:
                    full = np.ones(len(next_q), dtype=bool)
                    full[rows] = keep
                    keep = full
                next_q, child_ids, next_dist = next_q[keep], child_ids[keep], next_dist[keep]
        _descend(batch, layer + 1, next_q, child_ids, next_dist)
    finally:
        for table in tables:
            table.free()


def open_batch(
    forest: Forest,
    members: Sequence[tuple],
    metric: Metric,
    queries: Sequence,
    tombstones: Optional[np.ndarray],
    prune_mode: str | PruneMode,
    radii: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
) -> SearchBatch:
    """Open one query batch over every tree of ``forest`` under validated ``radii`` or ``k``.

    ``members`` gives each tree's ``(host store, device-read port or None,
    device)``; ``tombstones`` are stacked ids (sorted).  Builds the
    batch's :class:`BoundedTriples` accumulator — virtual query
    ``t * len(queries) + q`` is query ``q`` on tree ``t``, under that
    query's radius or ``k`` — and the :class:`SearchBatch` that carries it
    with each tree's :class:`TreeBatch`.  Every tree with objects is
    charged the upload of the query batch to its device (Section 5.1:
    queries are copied from the CPU to the GPU before processing); an empty
    batch charges nothing.  The exact descent (:func:`search_forest`) and
    the approximate searches (:mod:`repro.approx`), which pick their own
    (query, node) pairs and hand the leaves to :func:`verify_leaves`, open
    their batches here.
    """
    num_queries = len(queries)
    num_trees = forest.num_trees
    mode = prune_mode if isinstance(prune_mode, PruneMode) else PruneMode.from_name(prune_mode)
    if num_trees > 1:
        radii = None if radii is None else np.tile(radii, num_trees)
        k = None if k is None else np.tile(k, num_trees)
    results = BoundedTriples(num_trees * num_queries, tombstones, radii=radii, k=k)
    trees = [TreeBatch(store, port, device, metric, queries) for store, port, device in members]
    if num_queries:
        for tree, member in zip(forest.trees, trees):
            if tree.num_objects:
                member.device.transfer_to_device(num_queries * ENTRY_BYTES)
    return SearchBatch(
        forest,
        trees,
        metric,
        queries,
        num_queries,
        tombstones,
        mode,
        results,
        tiered=trees[0].port is not None,
        query_edges=(
            None if num_trees == 1 else np.arange(num_trees + 1, dtype=np.int64) * num_queries
        ),
    )


def descend_forest(batch: SearchBatch) -> None:
    """Run the exact level-synchronous descent of an opened batch.

    Every tree answers the whole batch under its own bounds, offering its
    pivots and verified leaf candidates to ``batch.results``; each tree's
    device is charged exactly what a search of that tree alone charges it,
    call for call.  An empty batch or forest does nothing.
    """
    forest, num_queries = batch.forest, batch.num_queries
    live = [t for t, tree in enumerate(forest.trees) if tree.num_objects]
    if num_queries == 0 or not live:
        return
    query_ids = np.arange(num_queries, dtype=np.int64)
    cand_q, cand_node, pivot_dist, roots = [], [], [], []
    for t in live:
        tree, member = forest.trees[t], batch.members[t]
        tree_q = query_ids + t * num_queries if t else query_ids
        cand_q.append(tree_q)
        node_off = forest.node_off[t]
        cand_node.append(
            np.full(num_queries, node_off, dtype=np.int64)
            if node_off
            else np.zeros(num_queries, dtype=np.int64)
        )
        if tree.height == 0:
            # Degenerate tree: the root is the single (over-full) leaf, and
            # no pivot distance bounds its objects.
            pivot_dist.append(np.zeros(num_queries))
            continue
        root_pivots = np.full(num_queries, tree.pivot[0], dtype=np.int64)
        dist = pivot_distances_per_query(member, query_ids, root_pivots)
        pivot_dist.append(dist)
        id_off = forest.id_off[t]
        roots.append((tree_q, root_pivots + id_off if id_off else root_pivots, dist))
    if roots:
        batch.results.offer(*_columns(roots))
    _descend(batch, 0, _cat(cand_q), _cat(cand_node), _cat(pivot_dist) if roots else None)


def search_forest(
    forest: Forest,
    members: Sequence[tuple],
    metric: Metric,
    queries: Sequence,
    tombstones: Optional[np.ndarray],
    prune_mode: str | PruneMode,
    radii: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
) -> BoundedTriples:
    """Search every tree of ``forest`` for a batch under validated ``radii`` or ``k``.

    :func:`open_batch`, then :func:`descend_forest`: one level-synchronous
    descent over all trees, whose answers are the accumulator's virtual
    queries and stacked ids.  Returns the accumulator before
    :meth:`BoundedTriples.answers` is read, so further candidate sources
    (the cache tables) can still offer to it; an empty batch or forest
    returns an empty accumulator.
    """
    batch = open_batch(forest, members, metric, queries, tombstones, prune_mode, radii, k)
    descend_forest(batch)
    return batch.results


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
    """Search one tree for a batch under validated ``radii`` or ``k``.

    The forest descent (:func:`search_forest`) over a forest of one tree:
    ``objects`` is the host object store; a tiered index passes its
    device-read ``port`` too.  Returns the batch's accumulator before
    :meth:`BoundedTriples.answers` is read, so further candidate sources
    (the cache table) can still offer to it; an empty batch or tree returns
    an empty accumulator.
    """
    forest = Forest([tree], slot_maps=None if port is None else [port.slot_of])
    return search_forest(
        forest,
        [(objects, port, device)],
        metric,
        queries,
        tombstone_array(exclude),
        prune_mode,
        radii=radii,
        k=k,
    )


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
