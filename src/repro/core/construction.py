"""Level-synchronous parallel construction of the GTS index (Algorithms 1-3).

The construction proceeds top-down, one level per iteration.  Every iteration
runs two phases, each of which the paper maps onto device-wide kernels:

*Mapping* (Algorithm 2)
    For every node of the current level, pick a pivot (FFT by default) and
    compute the distance from that pivot to each object the node holds.  All
    nodes of the level are handled by one conceptual kernel because their
    object ranges are contiguous in the table list.

*Partitioning* (Algorithm 3)
    Normalise the freshly computed distances, encode them as
    ``node_index + dis / (max + 1)``, sort the *whole* table list once with a
    device sort, decode, and split every node's (now distance-sorted) slice
    evenly into ``Nc`` children.

The result is a balanced tree of height ``h = ⌈log_Nc(n + 1)⌉ - 1``; nodes at
the last level may be over-full, exactly as in the paper.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..exceptions import ConstructionError
from ..gpusim.device import Allocation, Device
from ..gpusim.kernels import sort_kernel
from ..metrics.base import Metric
from .encoding import encode_distances
from .nodes import TreeStructure, level_size, level_start
from .objectstore import ColumnarStore, gather_rows, payload_nbytes, segmented_distances
from .pivots import PivotSelector, get_pivot_selector

__all__ = [
    "TreeBuild",
    "build_tree",
    "build_level",
    "BuildResult",
    "objects_nbytes",
    "concatenated_ranges",
]


def objects_nbytes(objects: Sequence, ids=None) -> int:
    """Estimate the device-resident size of a set of objects in bytes."""
    if isinstance(objects, ColumnarStore):
        count = len(objects) if ids is None else len(ids)
        return int(objects.row_nbytes * count)
    if isinstance(objects, np.ndarray):
        per_row = objects[0].nbytes if len(objects) else 0
        count = len(objects) if ids is None else len(ids)
        return int(per_row * count)
    if ids is None:
        items = objects
    else:
        items = [objects[int(i)] for i in ids]
    return int(sum(payload_nbytes(item) for item in items))


def concatenated_ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat indices of ``concatenate([arange(s, s + n) for s, n in zip(...)])``.

    The cumulative-sum trick behind every segmented gather in this engine:
    one vectorised pass instead of a Python loop over ranges.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, sizes)
        + np.repeat(np.asarray(starts, dtype=np.int64), sizes)
    )


@dataclass
class BuildResult:
    """Outcome of one index construction."""

    tree: TreeStructure
    allocations: list = field(default_factory=list)
    sim_time: float = 0.0
    wall_time: float = 0.0
    distance_computations: int = 0

    def storage_bytes(self) -> int:
        """Index storage (node list + table list), excluding the raw objects."""
        return self.tree.storage_bytes()


def _select_pivots(
    tree: TreeStructure,
    node_ids: np.ndarray,
    is_root_level: bool,
    selector: PivotSelector,
    rng: np.random.Generator,
) -> None:
    """Choose and record a pivot for every (non-empty) node of the current level.

    One :meth:`PivotSelector.select_level` call over the level's stored
    distances, segmented by node: FFT answers it with one segment argmax,
    other strategies with their per-node choice.
    """
    starts = tree.pos[node_ids]
    sizes = tree.size[node_ids]
    offsets = selector.select_level(
        tree.obj_dis[concatenated_ranges(starts, sizes)], sizes, is_root_level, rng
    )
    tree.pivot[node_ids] = tree.obj_ids[starts + offsets]


def _map_level(
    tree: TreeStructure,
    node_ids: np.ndarray,
    objects: Sequence,
    metric: Metric,
    device: Device,
    port=None,
) -> int:
    """Mapping phase: distances from each node's pivot to its objects.

    One ``segmented_distances`` call: every node of the level is a segment
    of the (contiguous) table list, its pivot the segment's query; the
    device time is charged as one level-wide kernel.  With a tiered
    ``port`` the level's reads are first faulted once, in physical-slot
    order (:attr:`~repro.tier.store.PagedObjects.slot_of`; each node's
    pivot is one of its own objects), so the level pages each block at most
    once and the host-side chunking of ``segmented_distances`` never
    reaches the pager.  Returns the number of distance computations
    performed (for statistics).
    """
    host_start = time.perf_counter()
    active = node_ids[tree.size[node_ids] > 0]
    sizes = tree.size[active]
    flat = concatenated_ranges(tree.pos[active], sizes)
    level_ids = tree.obj_ids[flat]
    if port is not None:
        port.fault(level_ids[np.argsort(port.slot_of[level_ids], kind="stable")])
    tree.obj_dis[flat] = segmented_distances(
        metric,
        objects,
        gather_rows(objects, tree.pivot[active]),
        np.concatenate(([0], np.cumsum(sizes))),
        level_ids,
    )
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=len(flat), op_cost=metric.unit_cost, label="gts-mapping", host_time=host
    )
    return len(flat)


def _partition_level(
    tree: TreeStructure,
    node_ids: np.ndarray,
    device: Device,
) -> None:
    """Partitioning phase: encode, global sort, decode, create children."""
    nc = tree.node_capacity
    n = tree.num_objects

    # Normalisation constant (Algorithm 3, lines 1-2): device-wide max reduce.
    max_dis = float(tree.obj_dis.max()) if n else 0.0
    device.launch_kernel(work_items=n, op_cost=1.0, label="gts-max-reduce")

    # Encoding (lines 3-6): one key per object; the per-node segment labels
    # are scattered in one pass over the (contiguous) node slices.
    segment_ids = np.zeros(n, dtype=np.int64)
    sizes = tree.size[node_ids]
    flat = concatenated_ranges(tree.pos[node_ids], sizes)
    segment_ids[flat] = np.repeat(np.arange(len(node_ids), dtype=np.int64), sizes)
    encoded = encode_distances(tree.obj_dis, segment_ids, max_dis)
    device.launch_kernel(work_items=n, op_cost=2.0, label="gts-encode")

    # Global sort (line 7): note the sort is stable so equal keys (identical
    # objects) keep their relative order, which is what makes the Fig. 10
    # duplicate-heavy workloads behave.
    order = sort_kernel(device, encoded, op_cost=1.0, label="gts-global-sort")
    tree.obj_ids[:] = tree.obj_ids[order]
    tree.obj_dis[:] = tree.obj_dis[order]

    # Decoding (lines 10-11) is implicit because obj_dis kept the raw
    # distances; charge the kernel anyway to stay faithful to the cost model.
    device.launch_kernel(work_items=n, op_cost=1.0, label="gts-decode")

    # Child creation (lines 12-18): even split, last child takes the slack;
    # every child of every node in one array pass.
    starts = tree.pos[node_ids][:, None]
    sizes = tree.size[node_ids][:, None]
    avg = sizes // nc
    slot = np.arange(nc, dtype=np.int64)[None, :]
    children = node_ids[:, None] * nc + 1 + slot
    c_pos = starts + slot * avg
    c_size = np.where(slot < nc - 1, avg, sizes - avg * (nc - 1))
    tree.pos[children] = c_pos
    tree.size[children] = c_size
    filled = c_size > 0
    tree.min_dis[children[filled]] = tree.obj_dis[c_pos[filled]]
    tree.max_dis[children[filled]] = tree.obj_dis[(c_pos + c_size - 1)[filled]]
    device.launch_kernel(work_items=children.size, op_cost=4.0, label="gts-make-children")


def build_level(
    tree: TreeStructure,
    layer: int,
    objects: Sequence,
    metric: Metric,
    device: Device,
    selector: PivotSelector,
    rng: np.random.Generator,
    port=None,
) -> int:
    """Run one level of the level-synchronous construction (Algorithms 2-3).

    The unit of work :class:`TreeBuild` advances by: pivot selection,
    the mapping kernel and the partitioning kernels of ``layer``'s active
    nodes.  A tiered build passes its device-read ``port``.  Returns the
    number of distance computations the level performed.
    """
    start = level_start(layer, tree.node_capacity)
    ids = np.arange(start, start + level_size(layer, tree.node_capacity), dtype=np.int64)
    active = ids[tree.size[ids] > 0]
    _select_pivots(tree, active, layer == 0, selector, rng)
    distances = _map_level(tree, active, objects, metric, device, port)
    _partition_level(tree, active, device)
    return distances


class TreeBuild:
    """One GTS construction, advanced level by level (Algorithms 1-3).

    The single construction driver: :func:`build_tree` runs it to the end
    in one call, and incremental maintenance (:mod:`repro.core.maintenance`)
    advances it a bounded number of levels per slice.  :meth:`stage` runs
    once and charges the device storage (the indexed objects and the tree,
    when ``allocate_storage``); every :meth:`run` builds more levels.  The
    simulated time, wall time and distance computations of those calls add
    up in :meth:`result` — work run between the calls (queries served while
    a rebuild is in flight) is not counted.

    Parameters
    ----------
    objects:
        The backing host object store (list of strings or an ``(n, d)``
        array).  Positions in this store are the persistent object ids.
    object_ids:
        Which objects to index (supports rebuilds after deletions).
    metric:
        The distance metric of the metric space.
    node_capacity:
        ``Nc``; must be at least 2.
    device:
        Simulated GPU the construction kernels run on.
    rng:
        Random generator for the root pivot choice; defaults to a fixed seed
        so builds are reproducible.
    pivot_strategy:
        ``"fft"`` (paper default), ``"random"``, ``"center"`` or a custom
        :class:`PivotSelector`.
    allocate_storage:
        When True (default) the index storage and the indexed objects are
        charged against the device's memory; the allocations are returned in
        the result so the caller can free them when the index is dropped.
    port:
        The device-read port (:class:`~repro.tier.store.PagedObjects`) of a
        tiered index: each level's mapping reads are faulted through it.
        None for a resident store.
    """

    def __init__(
        self,
        objects: Sequence,
        object_ids: np.ndarray,
        metric: Metric,
        node_capacity: int,
        device: Device,
        rng: Optional[np.random.Generator] = None,
        pivot_strategy: str | PivotSelector = "fft",
        allocate_storage: bool = True,
        port=None,
    ) -> None:
        object_ids = np.asarray(object_ids, dtype=np.int64)
        n = len(object_ids)
        if n == 0:
            raise ConstructionError("cannot build an index over an empty object set")
        if node_capacity < 2:
            raise ConstructionError(f"node capacity must be at least 2, got {node_capacity}")
        self.objects = objects
        self.metric = metric
        self.device = device
        self.rng = np.random.default_rng(17) if rng is None else rng
        self.selector = (
            pivot_strategy
            if isinstance(pivot_strategy, PivotSelector)
            else get_pivot_selector(pivot_strategy)
        )
        self.allocate_storage = allocate_storage
        self.port = port
        self.tree = TreeStructure.empty(n, node_capacity)
        self.tree.obj_ids[:] = object_ids
        self.tree.pos[0] = 0
        self.tree.size[0] = n
        self.allocations: list[Allocation] = []
        self.next_layer = 0
        self.staged = False
        self.sim_time = 0.0
        self.wall_time = 0.0
        self.distance_computations = 0

    @property
    def finished(self) -> bool:
        """True once storage is staged and every level is built."""
        return self.staged and self.next_layer >= self.tree.height

    def stage(self) -> None:
        """Charge the device storage of the build; runs once."""
        if self.staged:
            return
        with self._accounting():
            if self.allocate_storage:
                nbytes = objects_nbytes(self.objects, self.tree.obj_ids)
                self.device.transfer_to_device(nbytes)
                self.allocations.append(
                    self.device.allocate(nbytes, "gts-objects", pool="objects")
                )
                self.allocations.append(
                    self.device.allocate(self.tree.storage_bytes(), "gts-index", pool="tree")
                )
        self.staged = True

    def run(self, max_levels: Optional[int] = None) -> int:
        """Stage if needed, then build up to ``max_levels`` more levels (all
        remaining when None); returns the number of levels built."""
        self.stage()
        start = self.next_layer
        end = self.tree.height if max_levels is None else min(self.tree.height, start + max_levels)
        # one accounting interval per level, so a build's totals do not
        # depend on how its levels were split across calls
        while self.next_layer < end:
            with self._accounting():
                build_level(
                    self.tree,
                    self.next_layer,
                    self.objects,
                    self.metric,
                    self.device,
                    self.selector,
                    self.rng,
                    self.port,
                )
            self.next_layer += 1
        return self.next_layer - start

    def result(self) -> BuildResult:
        """The finished construction (its timing summed over every call)."""
        if not self.finished:
            raise ConstructionError(
                f"the build has finished {self.next_layer} of {self.tree.height} levels"
            )
        return BuildResult(
            tree=self.tree,
            allocations=self.allocations,
            sim_time=self.sim_time,
            wall_time=self.wall_time,
            distance_computations=self.distance_computations,
        )

    def abort(self) -> None:
        """Discard the build, freeing the device storage it staged."""
        for allocation in self.allocations:
            self.device.free(allocation)
        self.allocations = []

    @contextmanager
    def _accounting(self):
        """Add the enclosed work to the build's time and distance totals."""
        wall_start = time.perf_counter()
        sim_start = self.device.stats.sim_time
        dist_start = self.metric.pair_count
        yield
        self.sim_time += self.device.stats.sim_time - sim_start
        self.wall_time += time.perf_counter() - wall_start
        self.distance_computations += self.metric.pair_count - dist_start


def build_tree(
    objects: Sequence,
    object_ids: np.ndarray,
    metric: Metric,
    node_capacity: int,
    device: Device,
    rng: Optional[np.random.Generator] = None,
    pivot_strategy: str | PivotSelector = "fft",
    allocate_storage: bool = True,
    port=None,
) -> BuildResult:
    """Build a GTS tree over ``object_ids`` drawn from ``objects`` in one go.

    Runs a :class:`TreeBuild` (which documents the parameters) to the end.
    """
    build = TreeBuild(
        objects, object_ids, metric, node_capacity, device, rng, pivot_strategy,
        allocate_storage, port,
    )
    build.run()
    return build.result()
