"""Cache table for streaming updates (Section 4.4, "Stream Data Updates").

GPUs are poor at fine-grained structural updates, so GTS never modifies the
tree in place.  Instead, inspired by the LSM-tree write path, it buffers
streaming changes in a small, contiguous **cache table**:

* an insertion appends the new object to the cache table — ``O(1)``;
* a deletion removes the object from the cache table if it lives there,
  otherwise the object's slot in the index is tombstoned — ``O(1)``;
* similarity queries probe the cache table with a brute-force parallel scan
  and merge its answers with the tree's answers, ignoring tombstoned objects;
* when the cache table outgrows its byte budget, the whole index is rebuilt
  from the union of live indexed objects and cached objects, and the cache is
  cleared (the paper's "peak-valley" strategy).

This module implements the cache table and its brute-force query path; the
rebuild policy lives in :class:`repro.core.gts.GTS` (blocking) and
:mod:`repro.core.maintenance` (generation-swap).

The table holds only the ids of the buffered objects.
:meth:`GTS.insert <repro.core.gts.GTS.insert>` has already appended each
payload to the index's object store, which owns every row's byte count: the
table's used bytes are the store's ``nbytes`` of the cached ids, asked for
with the store (:meth:`CacheTable.used_bytes`), so a columnar dtype promotion
re-sizes every cached row with nothing to repair here.  A query batch scans
the cache with **one** fused ``cache-scan`` kernel
(:meth:`CacheTable.range_scan_batch`, alias ``knn_scan_batch``) that
evaluates the cached ids through
:func:`~repro.core.objectstore.segmented_distances` over the host store.
The scan runs after the tree descent and offers every (query, cached
object) distance to the batch's :class:`~repro.core.search.BoundedTriples`,
so tree and cache candidates are ranked, deduplicated and cut to ``k`` by
one accumulator.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..exceptions import UpdateError
from ..gpusim.device import Allocation, Device
from ..metrics.base import Metric
from .objectstore import segmented_distances

__all__ = ["CacheTable"]


class CacheTable:
    """Fixed-budget buffer of recently inserted objects, kept as ids.

    Parameters
    ----------
    capacity_bytes:
        Size budget of the cache table.  The paper evaluates 0.01 KB – 10 KB
        (Table 5) and recommends ~5 KB as the sweet spot between update and
        search efficiency.
    device:
        Simulated device on which the cache table (and its brute-force query
        scans) lives.  The byte budget is allocated up-front so that a larger
        cache leaves less memory for concurrent query processing — the
        trade-off behind Table 5's "decrease then increase" trend.
    """

    def __init__(self, capacity_bytes: int, device: Optional[Device] = None):
        if capacity_bytes <= 0:
            raise UpdateError("cache table capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._device = device
        # buffered ids (keys, in insertion order)
        self._ids: dict[int, bool] = {}
        self._allocation: Optional[Allocation] = None
        if device is not None:
            self._allocation = device.allocate(self.capacity_bytes, "gts-cache-table")

    # ------------------------------------------------------------ bookkeeping
    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, obj_id: int) -> bool:
        return int(obj_id) in self._ids

    def used_bytes(self, store) -> int:
        """Bytes the buffered objects take in ``store``, the index's object store."""
        return store.nbytes(self._ids)

    def is_full(self, store) -> bool:
        """True once the buffered objects exceed the byte budget."""
        return self.used_bytes(store) > self.capacity_bytes

    def object_ids(self) -> list[int]:
        """Ids of the objects currently buffered (insertion order)."""
        return list(self._ids)

    # ------------------------------------------------------------- mutations
    def ensure_fits(self, nbytes: int) -> None:
        """Reject an object of ``nbytes`` that alone exceeds the whole budget.

        Such an object could never be folded out by a rebuild without the
        cache immediately overflowing again on the next insert, so it is
        refused up front with :class:`~repro.exceptions.UpdateError`.
        """
        if nbytes > self.capacity_bytes:
            raise UpdateError(
                f"object of {nbytes} bytes exceeds the whole cache table budget "
                f"of {self.capacity_bytes} bytes; raise cache_capacity_bytes "
                "or use batch_update() for oversized objects"
            )

    def insert(self, obj_id: int) -> None:
        """Buffer a newly inserted object (O(1)); its size was checked by
        :meth:`ensure_fits`.  Raises :class:`~repro.exceptions.UpdateError`
        when the id is already buffered."""
        obj_id = int(obj_id)
        if obj_id in self._ids:
            raise UpdateError(f"object {obj_id} is already buffered in the cache table")
        self._ids[obj_id] = True

    def remove(self, obj_id: int) -> bool:
        """Remove a buffered object; returns False when it is not buffered."""
        return self._ids.pop(int(obj_id), False)

    def clear(self) -> None:
        """Drop every buffered object (after a rebuild)."""
        self._ids.clear()

    def release(self) -> None:
        """Free the device allocation backing the cache table."""
        if self._device is not None and self._allocation is not None:
            self._device.free(self._allocation)
            self._allocation = None

    # --------------------------------------------------------- batched queries
    def range_scan_batch(
        self,
        metric: Metric,
        objects: Sequence,
        queries: Sequence,
        results,
        device: Optional[Device] = None,
        query_offset: int = 0,
        id_offset: int = 0,
    ) -> None:
        """Scan the cache for a whole query batch and offer every pair to ``results``.

        ``objects`` is the index's host object store, which a scan reads
        without the tiered port: cached objects live in the device-resident
        cache table, so a scan faults no block.  One fused ``cache-scan`` kernel covers all
        ``len(queries) * len(cache)`` (query, cached object) pairs, evaluated
        as one segment of the cached ids per query; ``results`` is the
        batch's :class:`~repro.core.search.BoundedTriples` after the tree
        descent, so it applies each query's radius or running k-th bound
        exactly as it does to tree candidates.  When ``results`` serves a
        forest of trees (:func:`~repro.core.search.search_forest`), query
        ``q`` is offered as ``query_offset + q`` and cached id ``i`` as
        ``id_offset + i``: this table's tree's virtual queries and stacked
        ids.
        """
        if not self._ids or len(queries) == 0:
            return
        ids = np.fromiter(self._ids, count=len(self._ids), dtype=np.int64)
        num_queries = len(queries)
        flat_ids = np.tile(ids, num_queries)
        boundaries = np.arange(num_queries + 1, dtype=np.int64) * len(ids)
        start = time.perf_counter()
        dists = segmented_distances(metric, objects, queries, boundaries, flat_ids)
        host = time.perf_counter() - start
        dev = device or self._device
        if dev is not None:
            dev.launch_kernel(
                work_items=len(flat_ids),
                op_cost=metric.unit_cost,
                label="cache-scan",
                host_time=host,
            )
        first = np.arange(query_offset, query_offset + num_queries, dtype=np.int64)
        owner = np.repeat(first, len(ids))
        results.offer(owner, flat_ids + id_offset if id_offset else flat_ids, dists)

    #: the scan is the same for both query kinds: the accumulator holds the bound
    knn_scan_batch = range_scan_batch
