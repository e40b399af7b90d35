"""Incremental maintenance: generation-swap rebuilds in bounded slices.

The paper's stream-update design (Section 4.4) rebuilds the whole index the
moment the cache table outgrows its byte budget.  Inside a serving process
that rebuild is a stop-the-world stall: the overflowing ``insert`` holds the
device for a full construction while every queued query waits behind it.
Production GPU serving systems (Faiss, GENIE) keep query throughput up while
index maintenance happens off the hot path; this module gives GTS the same
property without giving up the paper's answers (DESIGN.md §9).

The mechanism is a **generation swap** advanced in **maintenance slices**:

1. a cache overflow only marks the index *maintenance-due* — the overflowing
   insert returns immediately;
2. the first maintenance slice snapshots the fold set (live indexed ids ∪
   cached ids, exactly the set :meth:`GTS.rebuild` folds) and starts
   constructing the replacement tree over it; every further slice runs a
   bounded number of construction levels (Algorithms 1-3 are
   level-synchronous, so a level is the natural work quantum);
3. between slices the index keeps answering queries from the **old** tree
   merged with the cache table — the visible object set is identical to what
   a stop-the-world rebuild would expose, so answers are byte-identical to
   the blocking path at every point of the operation stream;
4. when the last level completes, the new generation is swapped in
   atomically: snapshot members leave the cache, deletes that arrived during
   the rebuild carry over as tombstones of the new tree, the old tree's
   device storage is freed, and ``automatic_rebuild_count`` ticks.

Updates arriving mid-rebuild need no coordination: inserts land in the cache
(and simply stay there across the swap — they are not in the snapshot),
deletes of indexed objects tombstone the old tree (and the tombstone is
re-applied to the new tree at swap time), deletes of snapshot-cached objects
leave the cache immediately and are detected at swap time by their absence.

Tiered indexes build the replacement tree by paging the snapshot through the
existing :class:`~repro.tier.BlockPager`, and re-page the store in the new
tree's layout at swap time.

The controller is deliberately passive: *someone* must call
:meth:`IncrementalMaintenance.run_slice` for progress to happen.  The
serving layer (:class:`~repro.service.GTSService`) schedules slices between
micro-batches — deferring them while the request queue is deep — and
:class:`~repro.shard.ShardedGTS` staggers the shards so at most one is in
maintenance at a time.  ``hard_overflow_factor`` is the safety valve for
callers that never schedule slices: once the cache balloons past that
multiple of its budget, the next insert finishes the rebuild synchronously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "MaintenanceConfig",
    "SliceReport",
    "GenerationBuild",
    "IncrementalMaintenance",
]


@dataclass(frozen=True)
class MaintenanceConfig:
    """Tuning knobs of the incremental maintenance subsystem.

    Parameters
    ----------
    levels_per_slice:
        Construction levels one :meth:`IncrementalMaintenance.run_slice`
        call advances.  ``1`` (default) bounds each slice by a single
        level-wide mapping + partitioning pass — the smallest quantum the
        level-synchronous algorithm offers.
    hard_overflow_factor:
        Safety valve: when the cache table's payload exceeds this multiple
        of its byte budget while a rebuild is still pending, the overflowing
        insert runs the remaining slices synchronously.  ``None`` disables
        the valve (the cache may then grow without bound if no one schedules
        slices).
    """

    levels_per_slice: int = 1
    hard_overflow_factor: Optional[float] = 8.0

    def __post_init__(self) -> None:
        from ..exceptions import UpdateError

        if self.levels_per_slice < 1:
            raise UpdateError(
                f"levels_per_slice must be at least 1, got {self.levels_per_slice}"
            )
        if self.hard_overflow_factor is not None and self.hard_overflow_factor < 1.0:
            raise UpdateError(
                f"hard_overflow_factor must be >= 1 (or None), got {self.hard_overflow_factor}"
            )


@dataclass
class SliceReport:
    """Outcome of one maintenance slice (what the serving layer records)."""

    #: simulated seconds this slice held the device
    sim_time: float
    #: construction levels advanced by this slice
    levels: int
    #: True when this slice completed the build and swapped the generation in
    swapped: bool


class GenerationBuild:
    """An in-progress replacement tree and the snapshot it was taken from.

    Captures the fold set (live indexed ∪ cached ids — the identical set and
    order :meth:`GTS.rebuild` uses) plus the bookkeeping needed to reconcile
    updates that arrive while the build is in flight.  The construction
    itself is one :class:`~repro.core.construction.TreeBuild` with the
    index's settings, consuming the index's construction RNG, so the
    finished tree is the one a blocking rebuild over the snapshot builds.
    """

    def __init__(self, index) -> None:
        #: ids the new tree indexes, in rebuild fold order (live, then
        #: cached) — produced by the same helper the blocking path uses
        self.snapshot_ids, cached = index._fold_ids()
        #: cached ids folded into the tree (leave the cache at swap time)
        self.snapshot_cached = set(cached)
        #: tombstones existing at snapshot time (already excluded from the fold)
        self.baseline_tombstones = set(index._tombstones)
        #: the replacement tree's construction, advanced slice by slice
        self.build = index._tree_build(self.snapshot_ids)


class IncrementalMaintenance:
    """Per-index controller of non-blocking generation-swap rebuilds.

    Created by :meth:`GTS.enable_incremental_maintenance`.  While enabled,
    cache overflows mark the index maintenance-due instead of rebuilding
    inline; callers drive progress through :meth:`run_slice` (the serving
    layer does this between micro-batches).
    """

    def __init__(self, index, config: Optional[MaintenanceConfig] = None) -> None:
        self.index = index
        self.config = config or MaintenanceConfig()
        self.generation: Optional[GenerationBuild] = None
        self._due = False
        #: generations swapped in so far
        self.swaps_completed = 0

    # ------------------------------------------------------------------ state
    @property
    def in_flight(self) -> bool:
        """True while a replacement tree is under construction."""
        return self.generation is not None

    @property
    def due(self) -> bool:
        """True when a slice would make progress (overflow seen or in flight)."""
        return self._due or self.generation is not None

    # ------------------------------------------------------------------ hooks
    def notify_overflow(self) -> None:
        """Called by :meth:`GTS.insert` when the cache exceeds its budget."""
        self._due = True
        factor = self.config.hard_overflow_factor
        cache, store = self.index._cache, self.index._objects
        if factor is not None and cache.used_bytes(store) > factor * cache.capacity_bytes:
            self.run_to_completion()

    def run_slice(self) -> Optional[SliceReport]:
        """Advance the rebuild by one bounded slice; swap when it completes.

        Lazily snapshots and starts the generation on the first slice after
        an overflow.  Returns the slice's :class:`SliceReport`, or None when
        there is nothing to do.  The slice's simulated seconds are attributed
        under ``device.stats.maintenance_seconds`` (a subset of ``sim_time``,
        like the transfer flows).
        """
        if not self.due:
            return None
        index = self.index
        device = index.device
        if self.generation is None:
            if index.num_objects == 0:
                # everything was deleted since the overflow: nothing to fold
                self._due = False
                return None
            self.generation = GenerationBuild(index)
        generation = self.generation
        sim_start = device.stats.sim_time
        levels = generation.build.run(self.config.levels_per_slice)
        swapped = generation.build.finished
        if swapped:
            self._swap(generation)
        elapsed = device.stats.sim_time - sim_start
        device.stats.maintenance_seconds += elapsed
        return SliceReport(sim_time=elapsed, levels=levels, swapped=swapped)

    def run_to_completion(self) -> int:
        """Run slices until no maintenance is due; returns slices run."""
        count = 0
        while self.due:
            if self.run_slice() is None:
                break
            count += 1
        return count

    def abort(self) -> None:
        """Discard any in-flight generation (forced rebuilds fold everything)."""
        if self.generation is not None:
            self.generation.build.abort()
            self.generation = None
        self._due = False

    # ------------------------------------------------------------------- swap
    def _swap(self, generation: GenerationBuild) -> None:
        """Atomically install the finished generation.

        Deletes that arrived while the build was in flight carry over: fresh
        tombstones on indexed objects re-apply to the new tree (every member
        of the snapshot's live part), and snapshot-cached objects that left
        the cache mid-build (they were deleted) become tombstones too.
        Snapshot members still cached are now in the tree and leave the
        cache; post-snapshot inserts stay cached, visible as before.
        """
        index = self.index
        carried = set(index._tombstones) - generation.baseline_tombstones
        carried |= {
            oid for oid in generation.snapshot_cached if oid not in index._cache
        }
        # the pointer flip itself: one device write installs the new root
        index.device.launch_kernel(work_items=1, op_cost=1.0, label="generation-swap")
        for oid in generation.snapshot_cached:
            index._cache.remove(oid)
        # the old tree stayed live through the build; _install frees it
        index._install(generation.build.result(), generation.snapshot_ids, carried)
        index._automatic_rebuild_count += 1
        self.generation = None
        self.swaps_completed += 1
        # post-snapshot inserts may already exceed the budget again
        self._due = index._cache.is_full(index._objects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            f"building {self.generation.build.next_layer}/{self.generation.build.tree.height}"
            if self.generation is not None
            else ("due" if self._due else "idle")
        )
        return f"IncrementalMaintenance({state}, swaps={self.swaps_completed})"
