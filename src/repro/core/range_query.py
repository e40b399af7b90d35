"""Batch metric range query (MRQ) over a GTS tree — Algorithm 4.

Given a batch of ``(query, radius)`` pairs the algorithm walks the tree one
level at a time for *all* queries simultaneously:

1. each live (query, node) pair knows ``d(q, N.pivot)``;
2. every child of every candidate node is tested against Lemma 5.1 in one
   kernel — a child survives when the query ball ``[d(q,p)-r, d(q,p)+r]``
   intersects the child's ``[min_dis, max_dis]`` interval of distances to the
   parent pivot;
3. surviving internal children get their own pivot distance computed (one
   kernel, grouped per query) and become the next level's candidates;
   surviving leaves go to verification;
4. before expanding a level, the projected intermediate-table size is checked
   against the per-level memory limit; if it does not fit the query batch is
   split into groups processed sequentially (the two-stage strategy).

Verification computes the real distances of every object in the surviving
leaves and keeps those within the radius.  Results are exact.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..exceptions import QueryError
from ..gpusim.device import Device
from ..metrics.base import Metric
from .construction import take_objects
from .nodes import NO_PIVOT, TreeStructure
from .searchcommon import (
    ENTRY_BYTES,
    RESULT_BYTES,
    IntermediateTable,
    PruneMode,
    ResultTriples,
    broadcast_query_param,
    leaf_candidate_segments,
    leaf_prefetch_ids,
    level_pair_limit,
    pivot_distances_per_query,
    prune_children,
    segmented_distances,
    split_into_groups,
    tombstone_array,
)

__all__ = ["batch_range_query"]


def _verify_leaves(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    radii: np.ndarray,
    leaf_q: np.ndarray,
    leaf_node: np.ndarray,
    tombstones: Optional[np.ndarray],
    results: ResultTriples,
) -> None:
    """Compute real distances for every object in the surviving leaves.

    One fused pass: the surviving leaves' table-list slices are expanded into
    per-query candidate segments (slot-sorted on tiered stores), gathered
    once, and evaluated with a single segmented distance call; qualifying
    hits land in the triple-array accumulator.
    """
    if len(leaf_q) == 0:
        return
    # Lookahead for tiered stores: the surviving leaves are the first stage's
    # candidate list, so their object blocks can be staged in one coalesced
    # prefetch before verification gathers them.
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
    total_hits = 0
    if total_verified:
        # tiered stores get each query's candidates in physical-slot order:
        # results are order-insensitive (keyed by id) and a slot-sorted
        # gather touches each leaf-clustered block as one run
        query_objects = take_objects(queries, unique_queries)
        dists = segmented_distances(metric, objects, query_objects, boundaries, obj_ids)
        owner = np.repeat(unique_queries, np.diff(boundaries))
        hit = dists <= radii[owner]
        total_hits = int(hit.sum())
        if total_hits:
            results.add(owner[hit], obj_ids[hit], dists[hit])
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=total_verified,
        op_cost=metric.unit_cost,
        label="mrq-verify",
        host_time=host,
    )
    # result buffer for the qualifying answers only; results are streamed back
    # to the host in chunks, so the buffer never needs to exceed the memory
    # that is still available on the device
    if total_hits:
        buffer_bytes = min(total_hits * RESULT_BYTES, max(RESULT_BYTES, device.available_bytes))
        alloc = device.allocate(buffer_bytes, "mrq-results", pool="workspace")
        device.transfer_to_host(total_hits * RESULT_BYTES, label="results-d2h")
        device.free(alloc)


def _descend(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    radii: np.ndarray,
    layer: int,
    cand_q: np.ndarray,
    cand_node: np.ndarray,
    pivot_dist: np.ndarray,
    tombstones: Optional[np.ndarray],
    mode: PruneMode,
    results: ResultTriples,
) -> None:
    """Recursive per-level expansion (the Range_Q function of Algorithm 4)."""
    if len(cand_q) == 0:
        return
    if tree.is_leaf_level(layer):
        _verify_leaves(
            tree, objects, metric, device, queries, radii, cand_q, cand_node, tombstones, results
        )
        return

    # Two-stage memory strategy: split the batch when the projected
    # intermediate table would exceed the per-level limit.
    limit_pairs = level_pair_limit(device, tree.height, layer, tree.node_capacity)
    if len(cand_q) > limit_pairs:
        for group in split_into_groups(cand_q, limit_pairs):
            _descend(
                tree,
                objects,
                metric,
                device,
                queries,
                radii,
                layer,
                cand_q[group],
                cand_node[group],
                pivot_dist[group],
                tombstones,
                mode,
                results,
            )
        return

    projected = len(cand_q) * tree.node_capacity
    with IntermediateTable(device, projected, label=f"mrq-level-{layer + 1}"):
        r = radii[cand_q]
        pair_index, child_ids = prune_children(
            tree, cand_node, pivot_dist, r, r, mode, device
        )
        next_q = cand_q[pair_index]

        if tree.is_leaf_level(layer + 1):
            next_pivot_dist = np.zeros(len(child_ids), dtype=np.float64)
        else:
            pivots = tree.pivot[child_ids]
            next_pivot_dist = pivot_distances_per_query(
                device, metric, objects, queries, next_q, pivots
            )
            # A pivot is itself an indexed object: report it when it
            # qualifies (tombstoned pivots are filtered by the accumulator).
            within = next_pivot_dist <= radii[next_q]
            results.add(next_q[within], pivots[within], next_pivot_dist[within])

        _descend(
            tree,
            objects,
            metric,
            device,
            queries,
            radii,
            layer + 1,
            next_q,
            child_ids,
            next_pivot_dist,
            tombstones,
            mode,
            results,
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
    num_queries = len(queries)
    radii_arr = broadcast_query_param(radii, num_queries, "radii", np.float64)
    if np.any(radii_arr < 0):
        raise QueryError("range query radius must be non-negative")
    mode = prune_mode if isinstance(prune_mode, PruneMode) else PruneMode.from_name(prune_mode)

    if num_queries == 0 or tree.num_objects == 0:
        return [[] for _ in range(num_queries)]
    tombstones = tombstone_array(exclude)
    results = ResultTriples(num_queries, tombstones)

    # Load the queries onto the device (Section 5.1: queries are copied from
    # the CPU to the GPU before processing).
    device.transfer_to_device(num_queries * ENTRY_BYTES)

    cand_q = np.arange(num_queries, dtype=np.int64)
    cand_node = np.zeros(num_queries, dtype=np.int64)

    if tree.height == 0:
        # Degenerate tree: the root is the single (over-full) leaf.
        pivot_dist = np.zeros(num_queries, dtype=np.float64)
    else:
        root_pivots = np.full(num_queries, tree.pivot[0], dtype=np.int64)
        pivot_dist = pivot_distances_per_query(
            device, metric, objects, queries, cand_q, root_pivots
        )
        within = pivot_dist <= radii_arr
        results.add(cand_q[within], root_pivots[within], pivot_dist[within])

    _descend(
        tree,
        objects,
        metric,
        device,
        queries,
        radii_arr,
        0,
        cand_q,
        cand_node,
        pivot_dist,
        tombstones,
        mode,
        results,
    )

    return results.finalize()
