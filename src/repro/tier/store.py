"""Host-resident blocked object store and the device-read port over it.

:class:`TieredObjectStore` cuts the index's host object store (a
:class:`~repro.core.objectstore.ColumnarStore` or
:class:`~repro.core.objectstore.ListStore`, the primary copy of every
object) into blocks — ranges of *physical slots* sized so one block holds
roughly ``TierConfig.block_bytes`` of payload.  Blocks are the unit the
:class:`~repro.tier.pager.BlockPager` stages into device memory.  A block's
size is the host store's ``nbytes`` of the ids it holds, asked on each
fault and never cached, so a layout change or a dtype promotion leaves no
size to repair.  Which object sits in which slot is the store's
**layout**: the identity until the owning index installs its first tree,
then the leaf-clustered order :func:`leaf_clustered_order` derives from that
tree, so one leaf's objects share a few consecutive blocks (DESIGN.md §7).
That order puts the tree's internal-node pivots first, as the store's
**pinned prefix**: slots the owning index keeps staged on the device outside
the pager, so they belong to no block and are never faulted.

:class:`PagedObjects` is a tiered :class:`~repro.core.gts.GTS`'s
device-read port.  The index keeps its host store as ``GTS._objects`` and
every reader — device kernel or host — gathers rows from it directly; a
device kernel first faults its id list through the port
(:meth:`PagedObjects.fault`), which skips pinned ids and charges the misses
on the simulated device (the misses of one kernel share H2D transactions).  Host-side
readers (``get_object``, persistence, cost-model sampling, the cache scan)
never touch the port, so they cost no device traffic.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..exceptions import TierError

__all__ = ["TieredObjectStore", "PagedObjects", "leaf_clustered_order"]


def leaf_clustered_order(tree, num_ids: int) -> tuple[np.ndarray, int]:
    """The physical layout of a tiered store under ``tree``: ids in slot order,
    and how many leading slots are pinned.

    1. the distinct internal-node pivots, in node-list order — every descent
       level reads them, so they are the store's **pinned prefix**: staged
       on the device once per install and never paged (DESIGN.md §7);
    2. the rest of the tree's table list, in leaf order — each node's
       objects are one contiguous slice of the table list (paper §4.2), so a
       leaf's objects fill a few consecutive blocks;
    3. the ids below ``num_ids`` the tree does not hold (tombstoned before
       the build, or appended since), ascending.

    Returns ``(order, pinned)``: ``order[slot]`` is the id at ``slot`` and
    the first ``pinned`` slots hold the pivots.  A pure function of the tree
    and the store length: ids appended after the install take the next tail
    slots, which is exactly where this function puts them, so persistence
    can re-derive the live layout from the saved tree alone.
    """
    pivots = tree.pivot[tree.pivot >= 0]
    _, first = np.unique(pivots, return_index=True)
    pivots = pivots[np.sort(first)]
    placed = np.zeros(int(num_ids), dtype=bool)
    placed[pivots] = True
    table = tree.obj_ids[~placed[tree.obj_ids]]
    placed[table] = True
    order = np.concatenate((pivots, table, np.flatnonzero(~placed))).astype(np.int64)
    return order, len(pivots)


class TieredObjectStore:
    """Blocked view over a host object store, with an optional pinned prefix.

    Physical slots ``[0, pinned)`` are the **pinned prefix**: rows the
    owning index keeps staged on the device for the life of a layout (a
    tree's internal-node pivots, see :func:`leaf_clustered_order`), so they
    belong to no block and are never paged.  Blocks are contiguous ranges of
    the slots ``[pinned, n)``: ``objects_per_block`` is derived from the
    average row size of the initial store, so array datasets get exactly
    ``block_bytes``-sized blocks and variable-length datasets (strings) get
    blocks of approximately that size.  An id→slot map (:attr:`slot_of`)
    decides which block owns an object; it is the identity, with no pinned
    prefix, until :meth:`set_layout` installs a tree-derived order.  Host
    rows never move and object ids never change — only the block map does —
    and appends take the next tail slot.
    """

    def __init__(self, objects: Sequence, block_bytes: int):
        if len(objects) == 0:
            raise TierError("cannot build a tiered store over an empty object collection")
        if block_bytes <= 0:
            raise TierError(f"block size must be positive, got {block_bytes}")
        self._objects = objects
        self.block_bytes = int(block_bytes)
        per_object = math.ceil(objects.nbytes() / len(objects))
        self.objects_per_block = max(1, self.block_bytes // per_object)
        #: number of leading slots that are pinned (in no block)
        self.pinned = 0
        # id -> slot and slot -> id; slots beyond the store length keep the
        # identity so an append lands in the next tail slot with no work
        self._slot_of = np.arange(len(objects), dtype=np.int64)
        self._id_at = np.arange(len(objects), dtype=np.int64)
        self._tile()

    def _tile(self) -> None:
        """Cut the slots ``[pinned, len(maps))`` into blocks: ``_block_starts``
        holds every block's first slot and one past the last, so a slot's
        block is its ``searchsorted(..., "right") - 1`` (-1 when pinned)."""
        count = -(-(len(self._slot_of) - self.pinned) // self.objects_per_block)
        self._block_starts = self.pinned + self.objects_per_block * np.arange(
            count + 1, dtype=np.int64
        )

    # ------------------------------------------------------------- geometry
    @property
    def raw(self):
        """The underlying host object store."""
        return self._objects

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def num_blocks(self) -> int:
        """Number of blocks currently covering the unpinned slots."""
        paged = len(self._objects) - self.pinned
        return (paged + self.objects_per_block - 1) // self.objects_per_block

    @property
    def pinned_ids(self) -> np.ndarray:
        """The ids of the pinned prefix, in slot order (read-only view)."""
        return self._id_at[: self.pinned]

    @property
    def slot_of(self) -> np.ndarray:
        """The id→physical-slot map (read-only view, one entry per id)."""
        return self._slot_of[: len(self._objects)]

    @property
    def slot_map(self) -> np.ndarray:
        """The whole id→slot array, spare tail included.  A new array
        whenever a layout is installed or the store outgrows it, so a copy
        taken from it (a stacked forest's) is current while this is the
        same object."""
        return self._slot_of

    def block_of(self, obj_id: int) -> int:
        """Block that owns ``obj_id`` (a pinned id has none)."""
        obj_id = int(obj_id)
        if obj_id < 0 or obj_id >= len(self._objects):
            raise TierError(f"object id {obj_id} outside the store (size {len(self._objects)})")
        slot = int(self._slot_of[obj_id])
        if slot < self.pinned:
            raise TierError(f"object id {obj_id} is pinned and belongs to no block")
        return (slot - self.pinned) // self.objects_per_block

    def block_object_ids(self, block_id: int) -> np.ndarray:
        """The ids a block holds, in slot order (read-only view)."""
        block_id = int(block_id)
        if block_id < 0 or block_id >= self.num_blocks:
            raise TierError(f"unknown block id {block_id} (store has {self.num_blocks})")
        start = self.pinned + block_id * self.objects_per_block
        return self._id_at[start : min(start + self.objects_per_block, len(self._objects))]

    def block_nbytes(self, block_id: int) -> int:
        """Bytes of one block: the host store's ``nbytes`` of its ids."""
        return self._objects.nbytes(self.block_object_ids(block_id))

    def largest_block_nbytes(self) -> int:
        """Payload bytes of the largest block under the current layout (0 when
        every slot is pinned)."""
        return max((self.block_nbytes(b) for b in range(self.num_blocks)), default=0)

    def blocks_of(self, obj_ids) -> np.ndarray:
        """Owning block of every id of a batch (aligned, not deduplicated);
        -1 for a pinned id."""
        slots = self._slot_of[np.asarray(obj_ids, dtype=np.int64)]
        return self._block_starts.searchsorted(slots, "right") - 1

    def blocks_for(self, obj_ids) -> np.ndarray:
        """Unique owning blocks of a batch of object ids (ascending); pinned
        ids own none."""
        ids = np.asarray(obj_ids, dtype=np.int64)
        if len(ids) == 0:
            return np.zeros(0, dtype=np.int64)
        blocks = np.unique(self.blocks_of(ids))
        return blocks[blocks >= 0]

    # ------------------------------------------------------------- mutation
    def set_layout(self, order, pinned: int = 0) -> None:
        """Install a physical layout: ``order[slot]`` is the id at ``slot``,
        and the first ``pinned`` slots are the pinned prefix.

        ``order`` must be a permutation of every id in the store.  The
        caller owns the consequences for staged device copies (their block
        contents changed) and stages the pinned rows.
        """
        order = np.asarray(order, dtype=np.int64)
        n = len(self._objects)
        if len(order) != n or not np.array_equal(np.sort(order), np.arange(n)):
            raise TierError(f"a layout must place each of the store's {n} ids exactly once")
        if not 0 <= pinned <= n:
            raise TierError(f"a pinned prefix must lie within the store's {n} slots, got {pinned}")
        self._id_at[:n] = order
        self.pinned = int(pinned)
        # a fresh map, never written in place: see :attr:`slot_map`
        self._slot_of = self._slot_of.copy()
        self._slot_of[order] = np.arange(n, dtype=np.int64)
        self._tile()

    def append(self, obj) -> tuple[int, bool]:
        """Append one object to the host store.

        Returns the tail block's id and whether the host store rewrote its
        existing rows (a dtype change: every block's contents and the
        pinned rows changed).
        """
        rewrote = self._objects.append(obj)
        n = len(self._objects)
        if n > len(self._slot_of):
            # grow both maps geometrically; the new slots start as identity
            extra = np.arange(len(self._slot_of), max(n, 2 * len(self._slot_of)), dtype=np.int64)
            self._slot_of = np.concatenate((self._slot_of, extra))
            self._id_at = np.concatenate((self._id_at, extra))
            self._tile()
        return self.block_of(n - 1), rewrote


class PagedObjects:
    """Device-read port of a tiered index: faults object blocks through a pager.

    A device kernel calls :meth:`fault` with the ids it reads, in its read
    order, before gathering the rows from the host store; hits cost nothing
    and misses charge the H2D transfer on the simulated device.  Ids in the
    store's pinned prefix are staged already and cost no pager access.  The
    simulation only accounts for the staging traffic, it never copies data
    for real.  Kernels that gather candidates per query sort them by
    :attr:`slot_of` first, so consecutive ids of one block collapse into a
    single pager run.
    """

    def __init__(self, store: TieredObjectStore, pager):
        self.store = store
        self.pager = pager

    def gather(self, obj_ids) -> Sequence:
        """Fault the owning blocks of ``obj_ids``, then gather their host rows."""
        ids = np.asarray(obj_ids, dtype=np.int64)
        self.fault(ids)
        return self.store.raw.gather(ids)

    def fault(self, obj_ids) -> None:
        """Fault the owning blocks of one kernel's reads, in order.

        Hits and misses are those of one logical pager access per unpinned
        object, but consecutive ids of one block collapse into a single run,
        and the misses of the whole call are charged in co-resident waves
        (:meth:`BlockPager.fault_runs`).  Pinned ids are dropped as whole
        runs: a run of a block that follows a dropped run of the same block
        is a hit on the most recent block, exactly the accesses it would
        have merged into.  A kernel faults its whole id list here once and
        then reads its rows from the host store in any chunking, so the
        chunking stays invisible to the pager and the simulated clock.
        """
        ids = np.asarray(obj_ids, dtype=np.int64)
        count = len(ids)
        if count == 0:
            return
        store = self.store
        size = len(store._objects)
        # one reduction checks both ends: a negative id is huge as uint64
        if ids.view(np.uint64).max() >= size:
            bad = ids[(ids < 0) | (ids >= size)][0]
            raise TierError(f"object id {bad} outside the store (size {size})")
        # one slot gather serves both the pinned test and the block split:
        # ``after`` is each id's block plus one, 0 for a pinned id
        after = store._block_starts.searchsorted(store._slot_of[ids], "right")
        run_starts = (after[1:] != after[:-1]).nonzero()[0]
        if len(run_starts) == 0:
            first = int(after[0])
            if first:
                self.pager.fault_runs((first - 1,), (count,))
            return
        run_starts += 1
        run_lengths = np.diff(run_starts, prepend=0, append=count)
        run_blocks = after[np.concatenate(([0], run_starts))]
        unpinned = run_blocks > 0
        run_blocks, run_lengths = run_blocks[unpinned] - 1, run_lengths[unpinned]
        self.pager.fault_runs(run_blocks.tolist(), run_lengths.tolist())

    @property
    def slot_of(self) -> np.ndarray:
        """The store's id→physical-slot map: the sort key under which each
        block's candidates form one run."""
        return self.store.slot_of
