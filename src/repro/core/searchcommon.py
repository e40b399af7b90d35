"""Shared machinery of the batch MRQ / MkNNQ search (:mod:`repro.core.search`).

Both query algorithms (Sections 5.1 and 5.2) share these ingredients:

* validating the per-query parameters (:func:`query_radii`,
  :func:`query_ks`) — the one place every entry point checks them;
* the **forest** one descent walks (:class:`Forest`): the node and table
  arrays of one or more trees stacked with per-tree offsets, so each fused
  step of a level is one NumPy call over every tree's pairs;
* the per-batch invariants of one descent (:class:`SearchBatch`): forest,
  each tree's device side (:class:`TreeBatch`: host store, device-read
  port, device), metric, queries, tombstones, prune mode and accumulator;
* computing the distances from each query to the pivots of its candidate
  nodes — evaluated as **one fused segmented pass** over all (query, pivot)
  pairs of the level (:func:`pivot_distances_per_query` builds per-query
  segments and hands them to ``Metric.pairwise_segmented``);
* the **two-stage memory strategy**: before a level is expanded, the size of
  the next intermediate-result table is compared with the per-level memory
  limit ``size_GPU / ((h - layer + 1) * Nc)``; when it does not fit, the query
  batch is divided into groups processed sequentially;
* tracking intermediate-result allocations on the simulated device so that
  memory pressure has observable consequences;
* **triple-array answers**: qualifying ``(query, object, distance)`` triples
  are deduplicated (:func:`dedupe_min_triples`) and turned into the
  per-query sorted answer lists by one global ``np.lexsort``
  (:func:`triples_to_answer_lists`), instead of per-hit Python dict inserts;
  the sharded index ranks all its shards' triples with one such call;
* **segmented k-th selection** (:func:`segment_kth_smallest`): the k-th
  smallest value of every per-query segment, which is the kNN accumulator's
  bound and the certified filter's kNN limit;
* the **interval test** of Lemma 5.1 / 5.2 (:func:`pivot_window`, widened
  for rounding by :func:`distance_slack`), shared by child pruning
  (:func:`prune_children`), the kNN re-test (:func:`interval_survivors`)
  and the leaf candidates' ``obj_dis`` test
  (:func:`leaf_candidate_segments`).

The helpers here are pure functions over NumPy arrays, which keeps the
behaviour property-testable.  Only the *host* evaluation strategy lives
here — the simulated device-time accounting (kernel launches, work item
counts, transfer flows) is byte-for-byte the same as the historical
per-query implementation (DESIGN.md §8).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import MemoryDeadlockError, QueryError
from ..gpusim.device import Device
from ..metrics.base import Metric
from .construction import concatenated_ranges
from .nodes import TreeStructure
from .objectstore import gather_rows, segmented_distances

__all__ = [
    "ENTRY_BYTES",
    "PruneMode",
    "Forest",
    "TreeBatch",
    "SearchBatch",
    "broadcast_query_param",
    "query_radius",
    "query_radii",
    "query_k",
    "query_ks",
    "tombstone_array",
    "tombstoned_mask",
    "dedupe_min_triples",
    "segment_kth_smallest",
    "triples_to_answer_lists",
    "level_pair_limit",
    "split_into_groups",
    "pivot_distances_per_query",
    "leaf_candidate_segments",
    "distance_slack",
    "pivot_window",
    "interval_survivors",
    "prune_children",
    "IntermediateTable",
]

#: Simulated size of one intermediate-result entry ``{node, query, bound}``.
ENTRY_BYTES = 32

#: Simulated size of one verified-result slot ``{object, distance}``.
RESULT_BYTES = 16

#: Unit roundoff of float64 (the relative margin of one rounded operation).
_UNIT_ROUNDOFF = 2.0 ** -53


def broadcast_query_param(values, num_queries: int, name: str, dtype) -> np.ndarray:
    """Broadcast a per-query parameter (radii, ``k``) to the batch shape.

    Accepts a scalar shared by every query, a length-1 sequence, or one value
    per query.  Anything else — wrong length, extra dimensions, non-numeric
    entries — raises :class:`~repro.exceptions.QueryError` naming the
    parameter and both shapes, instead of the raw NumPy ``ValueError`` the
    bare ``np.broadcast_to`` produces.
    """
    try:
        arr = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise QueryError(
            f"{name} must be numeric (a scalar or one value per query), got {values!r}"
        ) from exc
    if arr.ndim > 1 or (arr.ndim == 1 and arr.shape[0] not in (1, num_queries)):
        raise QueryError(
            f"{name} must be a scalar or match the query batch: "
            f"expected shape ({num_queries},), got shape {arr.shape}"
        )
    return np.broadcast_to(arr, (num_queries,)).copy()


#: Largest magnitude up to which every integer is an exact float64.
_EXACT_INTEGERS = 2 ** 53

#: Every ``k`` is below this: the first float64 that does not fit an int64.
_K_LIMIT = 2.0 ** 63

#: Parameter types the scalar checks of :func:`query_radius` and
#: :func:`query_k` take (``bool`` and NumPy scalars are not among them).
_PLAIN_NUMBERS = (int, float)


def query_radius(radius) -> float:
    """One range query's radius, accepted and rejected as :func:`query_radii` does.

    A plain ``int`` or ``float`` that is a valid radius passes a scalar
    check; anything else — every invalid value included, so the error is
    the same — goes through the array check.
    """
    kind = type(radius)
    if (kind is float and radius >= 0) or (kind is int and 0 <= radius <= _EXACT_INTEGERS):
        return float(radius)
    return float(_radii_array(radius, 1)[0])


def query_radii(radii, num_queries: int) -> np.ndarray:
    """Range-query radii broadcast to the batch: non-negative, never NaN.

    ``+inf`` is a legal radius (it matches every object).  A NaN compares
    false against everything, so it would silently answer nothing after a
    full search; it raises :class:`~repro.exceptions.QueryError` instead.
    A plain number shared by the batch is checked by :func:`query_radius`.
    """
    if type(radii) in _PLAIN_NUMBERS:
        return np.full(num_queries, query_radius(radii))
    return _radii_array(radii, num_queries)


def _radii_array(radii, num_queries: int) -> np.ndarray:
    """:func:`query_radii` for any input, through one float64 array."""
    arr = broadcast_query_param(radii, num_queries, "radii", np.float64)
    # one pass: NaN fails ``>= 0`` just like a negative radius does
    if not (arr >= 0).all():
        raise QueryError(f"range query radii must be non-negative numbers, got {radii!r}")
    return arr


def query_k(k) -> int:
    """One kNN query's ``k``, accepted and rejected as :func:`query_ks` does.

    Same split as :func:`query_radius`: a plain ``int`` or integral
    ``float`` in ``[1, 2**53]`` passes a scalar check, anything else goes
    through the array check.
    """
    kind = type(k)
    if (kind is int or (kind is float and k.is_integer())) and 0 < k <= _EXACT_INTEGERS:
        return int(k)
    return int(_ks_array(k, 1)[0])


def query_ks(k, num_queries: int) -> np.ndarray:
    """kNN ``k`` values broadcast to the batch: positive integers.

    Integral floats (``8.0``) and NumPy integers are accepted; a fractional,
    infinite or NaN ``k``, or one of ``2**63`` or more (it would wrap as an
    int64), raises :class:`~repro.exceptions.QueryError` rather than being
    truncated.  A plain number shared by the batch is checked by
    :func:`query_k`.
    """
    if type(k) in _PLAIN_NUMBERS:
        return np.full(num_queries, query_k(k), dtype=np.int64)
    return _ks_array(k, num_queries)


def _ks_array(k, num_queries: int) -> np.ndarray:
    """:func:`query_ks` for any input, through one float64 array."""
    arr = broadcast_query_param(k, num_queries, "k", np.float64)
    # NaN fails every comparison, so it is rejected with the fractions;
    # ``inf`` fails the int64 limit
    if not ((arr > 0) & (arr < _K_LIMIT) & (arr == np.floor(arr))).all():
        raise QueryError(f"k must be a positive integer below 2**63, got {k!r}")
    return arr.astype(np.int64)


def tombstone_array(exclude: Optional[set]) -> Optional[np.ndarray]:
    """Sorted int64 array of tombstoned ids, precomputed once per batch.

    Replaces the per-group ``np.isin(obj_ids, list(exclude))`` pattern, which
    rebuilt a Python list from the set on every query group.
    """
    if not exclude:
        return None
    return np.asarray(sorted(exclude), dtype=np.int64)


def tombstoned_mask(obj_ids: np.ndarray, tombstones: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Boolean mask of the ids present in the sorted tombstone array.

    ``searchsorted`` over the precomputed sorted array — equivalent to
    ``np.isin`` but without re-sorting the tombstones per call.  Returns
    None when nothing is tombstoned (the common case keeps zero overhead).
    """
    if tombstones is None or len(tombstones) == 0 or len(obj_ids) == 0:
        return None
    pos = np.searchsorted(tombstones, obj_ids)
    pos = np.minimum(pos, len(tombstones) - 1)
    return tombstones[pos] == obj_ids


def triples_to_answer_lists(
    qs: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    num_queries: int,
    k: Optional[np.ndarray] = None,
) -> list[list[tuple[int, float]]]:
    """Turn (query, id, dist) triples into per-query (id, dist) answer lists.

    One global ``(query, distance, id)`` lexsort, then per-query slices —
    truncated to ``k[qi]`` entries when a per-query ``k`` array is given.
    The shared finalisation of MRQ results and MkNNQ top-k extraction.
    """
    order = np.lexsort((ids, dists, qs))
    qs, ids, dists = qs[order], ids[order], dists[order]
    starts = np.searchsorted(qs, np.arange(num_queries, dtype=np.int64))
    ends = np.searchsorted(qs, np.arange(1, num_queries + 1, dtype=np.int64))
    id_list = ids.tolist()
    dist_list = dists.tolist()
    out = []
    for qi in range(num_queries):
        start = int(starts[qi])
        end = int(ends[qi])
        if k is not None:
            end = min(end, start + int(k[qi]))
        out.append(list(zip(id_list[start:end], dist_list[start:end])))
    return out


def dedupe_min_triples(
    qs: np.ndarray, ids: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate (query, id) pairs to their minimum distance.

    Returns the surviving triples sorted by (query, id).  The search
    accumulator compacts with this; the engine only ever produces
    equal distances for duplicates, so min matches the historical
    last-write-wins dict semantics.
    """
    key = qs * (int(ids.max()) + 1) + ids
    order = np.lexsort((dists, key))
    key_sorted = key[order]
    # first occurrence per key carries the minimum distance; ``keep`` is
    # already in key order, i.e. sorted by (query, id)
    keep = order[np.concatenate(([True], key_sorted[1:] != key_sorted[:-1]))]
    return qs[keep], ids[keep], dists[keep]


def segment_kth_smallest(
    values: np.ndarray, boundaries: np.ndarray, ks: np.ndarray
) -> np.ndarray:
    """The ``ks[i]``-th smallest of each segment ``values[b[i]:b[i + 1]]``.

    ``inf`` for a segment holding fewer than ``ks[i]`` values, which costs
    no NumPy call; every other segment is one in-place partition of its
    copy.  Batches hold few queries, so the loop is over few segments.
    """
    out = np.full(len(ks), np.inf)
    edges = boundaries.tolist()
    for seg, k in enumerate(ks.tolist()):
        start, end = edges[seg], edges[seg + 1]
        if end - start >= k:
            segment = values[start:end].copy()
            segment.partition(k - 1)
            out[seg] = segment[k - 1]
    return out


@dataclass(frozen=True)
class PruneMode:
    """Which side(s) of the distance interval the pruning rule uses.

    ``two_sided`` (default) prunes a child when the query ball misses the
    child's ``[min_dis, max_dis]`` interval from either side.  ``one_sided``
    reproduces the paper's literal statement, which only uses ``min_dis``
    (``d(q, p) + r < min_dis``); it is kept for the ablation benchmark.
    """

    two_sided: bool = True

    @classmethod
    def from_name(cls, name: str) -> "PruneMode":
        key = name.strip().lower().replace("_", "-")
        if key in ("two-sided", "both", "default"):
            return cls(two_sided=True)
        if key in ("one-sided", "paper", "min-only"):
            return cls(two_sided=False)
        raise QueryError(f"unknown prune mode {name!r}")


def _stacked(arrays: list, offsets: list) -> np.ndarray:
    """``arrays`` concatenated, each shifted by its offset."""
    return np.concatenate([a + off if off else a for a, off in zip(arrays, offsets)])


class Forest:
    """The node list and table list of one or more trees, stacked.

    One descent walks every tree of a forest level by level, so each fused
    step of a level is one NumPy call over all trees' pairs.  The arrays
    carry :class:`~repro.core.nodes.TreeStructure`'s names, so the helpers
    below read a forest as they read a tree:

    * tree ``t``'s node ``n`` is stacked node ``node_off[t] + n``, and its
      ``j``-th child slot is ``node_off[t] + n * Nc + 1 + j`` (over
      several trees ``child_base`` holds every stacked node's first child
      slot; for one tree it is None and the slot is ``n * Nc + 1``);
    * its table-list entry ``i`` is stacked entry ``table_off + i``, and
      ``pos`` points into the stacked table list;
    * its object id ``i`` is stacked id ``id_off[t] + i`` — ``pivot`` and
      ``obj_ids`` hold stacked ids, and the caller picks offsets that keep
      every tree's ids (cached ones included) inside its own range;
    * ``slot_of`` (tiered trees only) is every tree's id→physical-slot map,
      indexed by stacked id.

    A forest of one tree is that tree's own arrays, not a copy, with every
    offset 0.  A forest is never changed in place; whoever caches one
    rebuilds it when a tree, a slot map or an id range changes.  Every tree
    has the same node capacity.
    """

    def __init__(
        self,
        trees: Sequence[TreeStructure],
        id_offsets: Sequence[int] = (0,),
        slot_maps: Optional[Sequence[np.ndarray]] = None,
    ):
        self.trees = tuple(trees)
        self.num_trees = len(self.trees)
        if len(id_offsets) != self.num_trees or id_offsets[0] != 0:
            raise QueryError("a forest needs one id offset per tree, the first 0")
        if self.num_trees == 1:
            (tree,) = self.trees
            self.node_capacity = tree.node_capacity
            self.heights = [tree.height]
            self.min_height = self.max_height = tree.height
            self.id_off = self.node_off = [0]
            self.pivot, self.pos, self.size = tree.pivot, tree.pos, tree.size
            self.min_dis, self.max_dis = tree.min_dis, tree.max_dis
            self.obj_ids, self.obj_dis = tree.obj_ids, tree.obj_dis
            self.child_base = None
            self.slot_of = None if slot_maps is None else slot_maps[0]
            return
        self.node_capacity = nc = self.trees[0].node_capacity
        if any(tree.node_capacity != nc for tree in self.trees):
            raise QueryError("every tree of a forest must have the same node capacity")
        self.heights = [tree.height for tree in self.trees]
        self.min_height, self.max_height = min(self.heights), max(self.heights)
        self.id_off = [int(off) for off in id_offsets]
        node_counts = [tree.num_nodes for tree in self.trees]
        self.node_off = np.concatenate(([0], np.cumsum(node_counts)[:-1])).tolist()
        table_off = np.concatenate(
            ([0], np.cumsum([len(tree.obj_ids) for tree in self.trees])[:-1])
        ).tolist()
        # leaves and empty slots keep their NO_PIVOT sentinel
        self.pivot = np.concatenate(
            [
                np.where(tree.pivot >= 0, tree.pivot + off, tree.pivot)
                for tree, off in zip(self.trees, self.id_off)
            ]
        )
        self.pos = _stacked([tree.pos for tree in self.trees], table_off)
        self.size = np.concatenate([tree.size for tree in self.trees])
        self.min_dis = np.concatenate([tree.min_dis for tree in self.trees])
        self.max_dis = np.concatenate([tree.max_dis for tree in self.trees])
        self.obj_ids = _stacked([tree.obj_ids for tree in self.trees], self.id_off)
        self.obj_dis = np.concatenate([tree.obj_dis for tree in self.trees])
        self.child_base = _stacked(
            [np.arange(count, dtype=np.int64) * nc + 1 for count in node_counts], self.node_off
        )
        self.slot_of = None
        if slot_maps is not None:
            ends = self.id_off[1:] + [self.id_off[-1] + len(slot_maps[-1])]
            self.slot_of = np.zeros(ends[-1], dtype=np.int64)
            for start, end, slots in zip(self.id_off, ends, slot_maps):
                count = min(len(slots), end - start)
                self.slot_of[start : start + count] = slots[:count]


@dataclass
class TreeBatch:
    """One tree's device side in a batch's descent.

    ``store`` is the tree's host object store; ``port`` is the device-read
    port (:class:`~repro.tier.store.PagedObjects`) of a tiered index, None
    for a resident one; ``device`` is charged the tree's kernels.  Leaf
    verification faults its id list through the port before reading the
    rows from the store; pivot rows are pinned on the device and fault
    nothing.  ``metric`` and ``queries`` are the batch's; ids and query
    indices handed to this tree's kernels are its own (local), not stacked.
    """

    store: Sequence
    port: object
    device: Device
    metric: Metric
    queries: Sequence


@dataclass
class SearchBatch:
    """The invariants of one query batch's descent over a forest.

    ``members`` holds each tree's :class:`TreeBatch`.  The accumulator
    ``results`` (:class:`~repro.core.search.BoundedTriples`) holds
    ``num_trees * num_queries`` virtual queries: query ``q`` on tree ``t``
    is ``t * num_queries + q``, so every tree keeps its own bounds, and the
    descent's pair lists, sorted by virtual query, hold each tree's pairs
    as one slice.  ``tombstones`` are stacked ids; ``tiered`` tells whether
    the trees read their rows through ports.
    """

    forest: Forest
    members: list
    metric: Metric
    queries: Sequence
    num_queries: int
    tombstones: Optional[np.ndarray]
    mode: PruneMode
    results: object
    tiered: bool
    #: first virtual query of every tree and one past the last (None for one tree)
    query_edges: Optional[np.ndarray]

    def parts(self, virtual_queries: np.ndarray) -> list[tuple[int, int, int]]:
        """``(tree, start, end)`` of every tree's slice of a sorted pair list."""
        if self.query_edges is None:
            count = len(virtual_queries)
            return [(0, 0, count)] if count else []
        edges = np.searchsorted(virtual_queries, self.query_edges).tolist()
        return [
            (tree, start, end)
            for tree, (start, end) in enumerate(zip(edges, edges[1:]))
            if end > start
        ]


def level_pair_limit(device: Device, height: int, layer: int, node_capacity: int) -> int:
    """Maximum number of candidate (query, node) pairs expandable at ``layer``.

    Derived from the paper's per-level limit ``size_GPU / ((h - layer + 1) * Nc)``
    with ``size_GPU`` taken as the *currently available* device memory, so an
    index (or other tenants) already resident on the device shrinks the
    budget, as it would on real hardware.
    """
    levels_left = max(1, height - layer + 1)
    budget = device.available_bytes // (levels_left * max(node_capacity, 1) * ENTRY_BYTES)
    return max(1, int(budget))


def split_into_groups(
    cand_query: np.ndarray, limit_pairs: int
) -> list[np.ndarray]:
    """Split candidate pair indices into groups of at most ``limit_pairs`` pairs.

    Pairs of the same query are kept together whenever a single query fits
    within the limit (the paper divides *queries* into groups); a query whose
    own candidate list exceeds the limit is chunked on its own, which keeps
    the search correct (range/kNN candidate sets are unions) while bounding
    memory.
    Returns a list of index arrays into the pair arrays.
    """
    if limit_pairs <= 0:
        raise QueryError("limit_pairs must be positive")
    order = np.argsort(cand_query, kind="stable")
    sorted_q = cand_query[order]
    # per-query segment boundaries of the sorted pair list (cumulative-sum
    # form: one vectorised pass instead of per-pair Python bookkeeping)
    change = np.flatnonzero(np.diff(sorted_q)) + 1
    seg_starts = np.concatenate(([0], change))
    seg_ends = np.concatenate((change, [len(order)]))
    # greedy packing over whole-query segments; groups are recorded as index
    # ranges into ``order`` and materialised with slices at the end
    groups: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] = []
    current_len = 0
    for start, end in zip(seg_starts.tolist(), seg_ends.tolist()):
        size = end - start
        if size > limit_pairs:
            # flush current, then chunk this oversized query on its own
            if current:
                groups.append(current)
                current, current_len = [], 0
            for chunk in range(start, end, limit_pairs):
                groups.append([(chunk, min(chunk + limit_pairs, end))])
            continue
        if current_len + size > limit_pairs and current:
            groups.append(current)
            current, current_len = [], 0
        current.append((start, end))
        current_len += size
    if current:
        groups.append(current)
    return [
        order[g[0][0] : g[0][1]]
        if len(g) == 1
        else np.concatenate([order[s:e] for s, e in g])
        for g in groups
    ]


def pivot_distances_per_query(
    batch: TreeBatch, cand_query: np.ndarray, pivot_ids: np.ndarray
) -> np.ndarray:
    """Distance from each candidate pair's query to the pair's node pivot.

    One tree's pairs, with its own query indices and object ids.  The pairs
    must be sorted by query index, as the descent's all are, so each
    query's run is one segment.  All are evaluated with a single fused
    ``Metric.pairwise_segmented`` call — one gather plus one broadcast pass
    over all (query, pivot) pairs of the level; the tree's device is charged
    one level-wide kernel over all pairs (this is the paper's "compute the
    distances of all nodes at the level simultaneously").  The kernel
    makes no pager access: the pivots of a tiered index's live tree are the
    store's pinned prefix, staged on the device at install (DESIGN.md §7).
    """
    if len(cand_query) == 0:
        return np.empty(0, dtype=np.float64)
    metric = batch.metric
    starts = np.flatnonzero(cand_query[1:] != cand_query[:-1]) + 1
    boundaries = np.concatenate(([0], starts, [len(cand_query)]))
    host_start = time.perf_counter()
    query_objects = gather_rows(batch.queries, cand_query[boundaries[:-1]])
    out = segmented_distances(metric, batch.store, query_objects, boundaries, pivot_ids)
    host = time.perf_counter() - host_start
    batch.device.launch_kernel(
        work_items=len(cand_query),
        op_cost=metric.unit_cost,
        label="pivot-distances",
        host_time=host,
    )
    return out


def leaf_candidate_segments(
    tree,
    leaf_q: np.ndarray,
    leaf_node: np.ndarray,
    tombstones: Optional[np.ndarray],
    slot_of: Optional[np.ndarray] = None,
    parent_dist: Optional[np.ndarray] = None,
    bounds: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
    distance_error: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query candidate segments of the surviving (query, leaf) pairs.

    The pairs must be sorted by query (``leaf_q`` ascending), as every
    caller's are; the segments are cut where the query changes.  Expands
    every pair's leaf slice of the table list and drops tombstoned
    ids.  Given ``parent_dist`` — each pair's ``d(q, p)`` to the pivot of
    the leaf's parent — and ``bounds`` (each pair's radius or k-th bound),
    the same compaction drops every candidate whose table-list distance
    ``obj_dis`` to that pivot lies outside :func:`pivot_window`: by the
    triangle inequality it is beyond its query's bound.  For kNN (``k``,
    indexed by query) each query's bound is first tightened to the k-th
    smallest upper bound ``d(q, p) + obj_dis`` (widened by
    :func:`distance_slack`) among its live candidates: those are distinct
    live objects, so the final k-th distance cannot exceed it.  No stored
    row is read.

    With ``slot_of`` — the id→physical-slot map of a tiered index's port,
    whose faults page device blocks — each query's candidates are
    additionally sorted by slot, so under the tiered store's leaf-clustered
    layout every block a query touches is one run of its fault
    (block-coalesced).
    Resident stores pass None and skip that sort: distances are per-row and
    the search accumulator orders by ``(distance, id)`` at the end, so
    candidate order cannot influence a single output bit.

    Returns ``(unique_queries, boundaries, obj_ids)``: segment ``i`` of the
    flat ``obj_ids`` — rows ``boundaries[i]:boundaries[i + 1]`` — holds the
    candidates of ``unique_queries[i]``.  Queries whose candidates were all
    tombstoned or filtered produce no segment, exactly like the historical
    per-query loop's ``continue``.
    """
    sizes = tree.size[leaf_node]
    flat = concatenated_ranges(tree.pos[leaf_node], sizes)
    obj_ids = tree.obj_ids[flat]
    owner = np.repeat(leaf_q, sizes)
    dead = tombstoned_mask(obj_ids, tombstones)
    keep = None if dead is None or not dead.any() else ~dead
    if parent_dist is not None and len(flat):
        obj_dis = tree.obj_dis[flat]
        if k is not None:
            upper = np.repeat(parent_dist, sizes)
            upper += obj_dis
            bounds = _tightened_knn_bounds(leaf_q, upper, owner, keep, bounds, k, distance_error)
        floor, reach = pivot_window(parent_dist, bounds, distance_error)
        inside = obj_dis >= np.repeat(floor, sizes)
        inside &= obj_dis <= np.repeat(reach, sizes)
        if keep is None:
            keep = inside
        else:
            keep &= inside
    if keep is not None and not keep.all():
        obj_ids, owner = obj_ids[keep], owner[keep]
    if slot_of is not None and len(obj_ids):
        order = np.lexsort((slot_of[obj_ids], owner))
        obj_ids, owner = obj_ids[order], owner[order]
    if len(owner) == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            obj_ids,
        )
    starts = np.concatenate(([0], np.flatnonzero(owner[1:] != owner[:-1]) + 1))
    unique_queries = owner[starts]
    boundaries = np.concatenate((starts, [len(owner)]))
    return unique_queries, boundaries, obj_ids


def _tightened_knn_bounds(
    leaf_q: np.ndarray,
    upper: np.ndarray,
    owner: np.ndarray,
    live: Optional[np.ndarray],
    bounds: np.ndarray,
    k: np.ndarray,
    distance_error: tuple[float, float],
) -> np.ndarray:
    """Each (query, leaf) pair's kNN bound, tightened by the table list.

    ``upper`` holds each candidate's ``d(q, p) + obj_dis >= d(q, o)``, so a
    query's k-th smallest ``upper`` over its ``live`` candidates (distinct
    objects) bounds its final k-th distance.  :func:`distance_slack` is
    monotone, so widening the k-th smallest sum widens every sum.  Pairs
    and candidates are query-sorted.
    """
    if live is not None:
        upper, owner = upper[live], owner[live]
    firsts = np.empty(len(leaf_q), dtype=bool)
    firsts[0] = True
    np.not_equal(leaf_q[1:], leaf_q[:-1], out=firsts[1:])
    queries = leaf_q[firsts]
    edges = np.concatenate((np.searchsorted(owner, queries), [len(owner)]))
    kth = segment_kth_smallest(upper, edges, k[queries])
    kth += distance_slack(kth, distance_error)
    return np.minimum(bounds, kth[np.cumsum(firsts) - 1])


def distance_slack(reach, distance_error: tuple[float, float]):
    """How far a triangle-inequality test at ``reach`` must widen for rounding.

    ``reach`` is a sum of two reported distances — ``d(q, p) + bound`` in an
    interval test, ``d(q, p) + d(p, o)`` as an upper bound on ``d(q, o)``.
    ``distance_error`` is the metric's
    :meth:`~repro.metrics.base.Metric.distance_error` ``(rel, abs)``: every
    stored and computed distance may be off its exact value by
    ``rel * d + abs``, so the test widens by
    ``reach * (G - 1) + (2G + 1) * abs`` with ``G = (1 + rel) / (1 - rel)`` —
    what the triangle inequality needs when all three distances err against
    it — plus ``8u`` relative for the rounding of the test itself.  Without
    it, rounding pruned leaves holding an object at distance exactly ``r``
    (collinear query, object and pivot).  Exact metrics (``(0, 0)``) get
    ``0.0``: the raw tests.  Monotone in ``reach``, so the slack of a k-th
    smallest reach is the k-th smallest widened reach.
    """
    rel, absolute = distance_error
    if not (rel or absolute):
        return 0.0
    grow = (1.0 + rel) / (1.0 - rel)
    slack = reach * ((grow - 1.0) + 8.0 * _UNIT_ROUNDOFF)
    slack += (2.0 * grow + 1.0) * absolute
    return slack


def pivot_window(
    pivot_dist: np.ndarray, allowance: np.ndarray, distance_error: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """``(floor, reach)``: the distances to a pivot that Lemma 5.1 / 5.2 keep.

    An object ``o`` with ``d(p, o)`` outside ``[floor, reach]`` lies beyond
    ``allowance`` of the query: ``|d(q, p) - d(p, o)| <= d(q, o)`` by the
    triangle inequality.  Both ends are widened by :func:`distance_slack`.
    """
    reach = pivot_dist + allowance
    floor = pivot_dist - allowance
    slack = distance_slack(reach, distance_error)
    return floor - slack, reach + slack


def interval_survivors(
    tree,
    node_ids: np.ndarray,
    pivot_dist: np.ndarray,
    allowance: np.ndarray,
    mode: PruneMode,
    distance_error: tuple[float, float],
) -> np.ndarray:
    """Mask of the nodes whose ``[min_dis, max_dis]`` meets the query ball.

    ``pivot_dist`` and ``allowance`` are per row of ``node_ids`` (1-d: one
    node per row; 2-d: every child of one parent per row), ``pivot_dist``
    being ``d(q, parent pivot)``.  Both tests are non-strict, so a node
    whose bound equals the allowance survives; the one-sided mode tests
    ``min_dis`` only.
    """
    floor, reach = pivot_window(pivot_dist, allowance, distance_error)
    if node_ids.ndim == 2:
        floor, reach = floor[:, None], reach[:, None]
    keep = reach >= tree.min_dis[node_ids]
    if mode.two_sided:
        keep &= floor <= tree.max_dis[node_ids]
    return keep


def prune_children(
    tree,
    first_child: np.ndarray,
    pivot_dist: np.ndarray,
    allowance: np.ndarray,
    mode: PruneMode,
    distance_error: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Apply Lemma 5.1 / 5.2 to every child of every candidate node at once.

    Parameters
    ----------
    tree:
        A :class:`~repro.core.nodes.TreeStructure` or a :class:`Forest`.
    first_child:
        Each pair's first child slot (``node * Nc + 1`` in one tree, the
        node's ``Forest.child_base`` entry in a stack); a node's ``Nc``
        children are consecutive slots.
    pivot_dist:
        ``d(q, N.pivot)`` for each pair.
    allowance:
        Per-pair slack on both sides of the interval test: the radius ``r``
        for MRQ, the current k-th bound for MkNNQ
        (:func:`interval_survivors`).
    distance_error:
        The metric's :meth:`~repro.metrics.base.Metric.distance_error`
        ``(rel, abs)``, which widens the test (:func:`distance_slack`).

    Returns
    -------
    (pair_index, child_id):
        Arrays describing the surviving (pair, child) combinations; the pair
        index refers back to the positions in ``first_child``.  The caller
        charges the ``prune-children`` kernel (``Nc`` items per pair).
    """
    nc = tree.node_capacity
    if len(first_child) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    child_ids = first_child[:, None] + np.arange(nc, dtype=np.int64)[None, :]
    keep = tree.size[child_ids] > 0
    keep &= interval_survivors(tree, child_ids, pivot_dist, allowance, mode, distance_error)
    pair_index, child_col = np.nonzero(keep)
    return pair_index.astype(np.int64), child_ids[pair_index, child_col].astype(np.int64)


class IntermediateTable:
    """RAII-style allocation of the per-level intermediate result table.

    Raises :class:`MemoryDeadlockError` when the allocation cannot be
    satisfied — the exact failure mode the paper ascribes to prior GPU tree
    indexes; GTS itself avoids it through :func:`level_pair_limit` grouping,
    so within GTS this error indicates the device is too small to hold even
    one query group (which the tests exercise explicitly).
    """

    def __init__(self, device: Device, entries: int, label: str = "intermediate"):
        self._device = device
        try:
            self._allocation = device.allocate(int(entries) * ENTRY_BYTES, label, pool="workspace")
        except Exception as exc:  # DeviceMemoryError
            raise MemoryDeadlockError(
                f"cannot allocate intermediate table of {entries} entries: {exc}"
            ) from exc

    def free(self) -> None:
        """Release the table (idempotent)."""
        self._device.free(self._allocation)

    def __enter__(self) -> "IntermediateTable":
        return self

    def __exit__(self, *exc_info) -> None:
        self.free()
