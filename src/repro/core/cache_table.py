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

A query batch scans the cache with **one** fused ``cache-scan`` kernel
(:meth:`CacheTable.range_scan_batch`, alias ``knn_scan_batch``) via
``Metric.pairwise_segmented`` over a columnar snapshot of the cached payload
(rebuilt lazily after mutations).  The scan runs after the tree descent and
offers every (query, cached object) distance to the batch's
:class:`~repro.core.search.BoundedTriples`, so tree and cache candidates are
ranked, deduplicated and cut to ``k`` by one accumulator.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..exceptions import UpdateError
from ..gpusim.device import Allocation, Device
from ..metrics.base import Metric
from .construction import objects_nbytes

__all__ = ["CacheTable"]


class CacheTable:
    """Fixed-budget buffer of recently inserted objects.

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
        self._objects: dict[int, object] = {}
        self._used_bytes = 0
        self._allocation: Optional[Allocation] = None
        # lazily built (ids, payload) snapshot the batched scans gather from;
        # any mutation drops it
        self._payload: Optional[tuple] = None
        if device is not None:
            self._allocation = device.allocate(self.capacity_bytes, "gts-cache-table")

    # ------------------------------------------------------------ bookkeeping
    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, obj_id: int) -> bool:
        return int(obj_id) in self._objects

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
        return list(self._objects)

    def get(self, obj_id: int, default=None):
        """Return the buffered object under ``obj_id`` in O(1), or ``default``."""
        return self._objects.get(int(obj_id), default)

    @staticmethod
    def _object_size(obj) -> int:
        return max(1, objects_nbytes([obj]))

    # ------------------------------------------------------------- mutations
    def ensure_fits(self, obj) -> None:
        """Reject an object that alone exceeds the whole cache budget.

        Such an object could never be folded out by a rebuild without the
        cache immediately overflowing again on the next insert, so it is
        refused up front with :class:`~repro.exceptions.UpdateError`.
        """
        size = self._object_size(obj)
        if size > self.capacity_bytes:
            raise UpdateError(
                f"object of {size} bytes exceeds the whole cache table budget "
                f"of {self.capacity_bytes} bytes; raise cache_capacity_bytes "
                "or use batch_update() for oversized objects"
            )

    def insert(self, obj_id: int, obj) -> None:
        """Buffer a newly inserted object (O(1)).

        Raises :class:`~repro.exceptions.UpdateError` when the object alone
        exceeds ``capacity_bytes`` (see :meth:`ensure_fits`) or the id is
        already buffered.
        """
        obj_id = int(obj_id)
        if obj_id in self._objects:
            raise UpdateError(f"object {obj_id} is already buffered in the cache table")
        self.ensure_fits(obj)
        self._objects[obj_id] = obj
        self._used_bytes += self._object_size(obj)
        self._payload = None

    def remove(self, obj_id: int) -> bool:
        """Remove a buffered object; returns False when it is not buffered."""
        obj = self._objects.pop(int(obj_id), None)
        if obj is None:
            return False
        self._used_bytes -= self._object_size(obj)
        self._payload = None
        return True

    def clear(self) -> None:
        """Drop every buffered object (after a rebuild)."""
        self._objects.clear()
        self._used_bytes = 0
        self._payload = None

    def release(self) -> None:
        """Free the device allocation backing the cache table."""
        if self._device is not None and self._allocation is not None:
            self._device.free(self._allocation)
            self._allocation = None

    # --------------------------------------------------------- batched queries
    def _tiled_payload(self, num_queries: int) -> tuple:
        """The cached payload tiled to ``num_queries`` segments.

        Returns ``(ids, flat_objects, boundaries)`` where segment ``qi`` of
        ``flat_objects`` (rows ``boundaries[qi]:boundaries[qi + 1]``) is the
        whole cache in insertion order — the shape
        ``Metric.pairwise_segmented`` consumes.  Vector caches snapshot one
        stacked matrix (rebuilt lazily after mutations) so the tile is a
        single NumPy repeat; everything else tiles the object list.
        """
        if self._payload is None:
            ids = np.fromiter(self._objects, count=len(self._objects), dtype=np.int64)
            values = list(self._objects.values())
            matrix = None
            if values and all(
                isinstance(o, np.ndarray) and o.ndim == 1 for o in values
            ) and len({(o.shape, o.dtype.str) for o in values}) == 1:
                matrix = np.stack(values)
            self._payload = (ids, values, matrix)
        ids, values, matrix = self._payload
        count = len(ids)
        boundaries = np.arange(num_queries + 1, dtype=np.int64) * count
        if matrix is not None:
            flat = np.tile(matrix, (num_queries, 1))
        else:
            flat = values * num_queries
        return ids, flat, boundaries

    def range_scan_batch(
        self,
        metric: Metric,
        queries: Sequence,
        results,
        device: Optional[Device] = None,
    ) -> None:
        """Scan the cache for a whole query batch and offer every pair to ``results``.

        One fused ``cache-scan`` kernel covers all ``len(queries) * len(cache)``
        (query, cached object) pairs; ``results`` is the batch's
        :class:`~repro.core.search.BoundedTriples` after the tree descent, so
        it applies each query's radius or running k-th bound exactly as it
        does to tree candidates.
        """
        if not self._objects or len(queries) == 0:
            return
        ids, flat, boundaries = self._tiled_payload(len(queries))
        start = time.perf_counter()
        dists = metric.pairwise_segmented(queries, flat, boundaries)
        host = time.perf_counter() - start
        dev = device or self._device
        if dev is not None:
            dev.launch_kernel(
                work_items=len(flat),
                op_cost=metric.unit_cost,
                label="cache-scan",
                host_time=host,
            )
        owner = np.repeat(np.arange(len(queries), dtype=np.int64), len(ids))
        results.offer(owner, np.tile(ids, len(queries)), dists)

    #: the scan is the same for both query kinds: the accumulator holds the bound
    knn_scan_batch = range_scan_batch

    def items(self) -> list[tuple[int, object]]:
        """Return ``(object_id, object)`` pairs currently buffered."""
        return list(self._objects.items())
