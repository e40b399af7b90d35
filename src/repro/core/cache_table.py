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

The table holds only the ids of the buffered objects and their byte sizes
(re-sized by :meth:`CacheTable.resize` when an insert promotes a columnar
store's dtype, which widens every stored row):
:meth:`GTS.insert <repro.core.gts.GTS.insert>` has already appended each
payload to the index's object store, so a query batch scans the cache with
**one** fused ``cache-scan`` kernel (:meth:`CacheTable.range_scan_batch`,
alias ``knn_scan_batch``) that evaluates the cached ids through
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
    """Fixed-budget buffer of recently inserted objects, kept as ids and sizes.

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
        # buffered id -> payload bytes, in insertion order
        self._sizes: dict[int, int] = {}
        self._used_bytes = 0
        self._allocation: Optional[Allocation] = None
        if device is not None:
            self._allocation = device.allocate(self.capacity_bytes, "gts-cache-table")

    # ------------------------------------------------------------ bookkeeping
    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, obj_id: int) -> bool:
        return int(obj_id) in self._sizes

    @property
    def used_bytes(self) -> int:
        """Bytes of cached payload currently buffered."""
        return self._used_bytes

    @property
    def is_full(self) -> bool:
        """True once the buffered payload exceeds the byte budget."""
        return self._used_bytes > self.capacity_bytes

    def object_ids(self) -> list[int]:
        """Ids of the objects currently buffered (insertion order)."""
        return list(self._sizes)

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

    def insert(self, obj_id: int, nbytes: int) -> None:
        """Buffer a newly inserted object of ``nbytes`` payload bytes (O(1)).

        Raises :class:`~repro.exceptions.UpdateError` when the object alone
        exceeds ``capacity_bytes`` (see :meth:`ensure_fits`) or the id is
        already buffered.
        """
        obj_id = int(obj_id)
        if obj_id in self._sizes:
            raise UpdateError(f"object {obj_id} is already buffered in the cache table")
        self.ensure_fits(nbytes)
        self._sizes[obj_id] = int(nbytes)
        self._used_bytes += int(nbytes)

    def remove(self, obj_id: int) -> bool:
        """Remove a buffered object; returns False when it is not buffered."""
        nbytes = self._sizes.pop(int(obj_id), None)
        if nbytes is None:
            return False
        self._used_bytes -= nbytes
        return True

    def resize(self, nbytes: int) -> None:
        """Set every buffered object's size to ``nbytes``.

        For a columnar object store whose dtype an insert promoted: each
        cached object is one of its rows, and every row now holds
        ``nbytes``.
        """
        nbytes = int(nbytes)
        self._sizes = dict.fromkeys(self._sizes, nbytes)
        self._used_bytes = nbytes * len(self._sizes)

    def clear(self) -> None:
        """Drop every buffered object (after a rebuild)."""
        self._sizes.clear()
        self._used_bytes = 0

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
    ) -> None:
        """Scan the cache for a whole query batch and offer every pair to ``results``.

        ``objects`` is the index's host object store, which a scan reads
        without the tiered port: cached objects live in the device-resident
        cache table, so a scan faults no block.  One fused ``cache-scan`` kernel covers all
        ``len(queries) * len(cache)`` (query, cached object) pairs, evaluated
        as one segment of the cached ids per query; ``results`` is the
        batch's :class:`~repro.core.search.BoundedTriples` after the tree
        descent, so it applies each query's radius or running k-th bound
        exactly as it does to tree candidates.
        """
        if not self._sizes or len(queries) == 0:
            return
        ids = np.fromiter(self._sizes, count=len(self._sizes), dtype=np.int64)
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
        owner = np.repeat(np.arange(num_queries, dtype=np.int64), len(ids))
        results.offer(owner, flat_ids, dists)

    #: the scan is the same for both query kinds: the accumulator holds the bound
    knn_scan_batch = range_scan_batch
