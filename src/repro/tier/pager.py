"""Demand pager staging host-memory object blocks into a device pool.

The :class:`BlockPager` owns a bounded region of simulated device memory
(allocated from the device's ``"pager"`` pool) and fills it with object
blocks on demand:

* an **access** to a resident block is a hit — no device traffic, the
  eviction policy is touched;
* a **miss** evicts victims until the block fits and allocates it in the
  pool.  The misses of one gather (:meth:`BlockPager.fault_runs` — every
  block a level-synchronous kernel reads is known before it launches) are
  charged as **waves**: one H2D transaction (``TierConfig.fault_latency``
  plus bytes/bandwidth) covers all missed blocks that are resident
  together.  A wave closes just before the eviction policy picks one of
  its own blocks as a victim, and at the end of the gather, so hits,
  misses, evictions and the resident set are exactly those of faulting
  the blocks one access at a time — only the number of latency charges
  falls.  A single :meth:`BlockPager.access` is the one-block case;
* a **prefetch** stages a candidate set in one transaction before the
  kernel runs and never evicts its own blocks to make room, so it is
  always a single wave; what it adds over coalesced demand faults is
  hoisting the staging ahead of the gather (see DESIGN.md §7);
* an **invalidation** (a host-side append made a resident copy stale) drops
  the block without writeback — the host copy is the newer one.  A block a
  device kernel wrote back (none today; the object store is read-only on
  device) would instead be a D2H writeback, which the stats track.

Eviction is pluggable: LRU, CLOCK (second chance), and ``pinned-lru`` — a
pin-aware LRU that never evicts blocks holding the tree's pivot objects
while any unpinned victim exists.  Pivot blocks are touched at every level
of every descent, so protecting them is the single highest-value hint the
index can give the pager.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Set

from ..exceptions import DeviceMemoryError, TierError
from ..gpusim.device import Allocation, Device
from .config import TierConfig
from .store import TieredObjectStore

__all__ = [
    "BlockPager",
    "PagerStats",
    "EvictionPolicy",
    "LRUPolicy",
    "ClockPolicy",
    "PinnedLRUPolicy",
    "EVICTION_POLICIES",
    "make_eviction_policy",
    "PAGER_POOL",
    "H2D_LABEL",
    "D2H_LABEL",
]

#: Device memory pool the pager's block allocations are charged under.
PAGER_POOL = "pager"

#: ``ExecutionStats.transfer_seconds`` keys the pager attributes traffic to.
H2D_LABEL = "pager-h2d"
D2H_LABEL = "pager-d2h"


@dataclass
class PagerStats:
    """Counters describing the pager's behaviour since creation/reset."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: evictions where the pin-aware policy had to sacrifice a pinned block
    forced_evictions: int = 0
    #: stale resident copies dropped after a host-side append
    invalidations: int = 0
    #: dirty blocks written back device→host on eviction
    writebacks: int = 0
    prefetched_blocks: int = 0
    #: hits on blocks that a prefetch (rather than a demand fault) staged
    prefetch_hits: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    #: H2D transactions charged (demand-fault waves plus prefetches); each
    #: pays ``fault_latency`` once
    transactions: int = 0
    h2d_seconds: float = 0.0
    d2h_seconds: float = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from the device pool (1.0 when idle)."""
        total = self.accesses
        return self.hits / total if total else 1.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "forced_evictions": self.forced_evictions,
            "invalidations": self.invalidations,
            "writebacks": self.writebacks,
            "prefetched_blocks": self.prefetched_blocks,
            "prefetch_hits": self.prefetch_hits,
            "bytes_h2d": self.bytes_h2d,
            "bytes_d2h": self.bytes_d2h,
            "transactions": self.transactions,
            "h2d_seconds": self.h2d_seconds,
            "d2h_seconds": self.d2h_seconds,
        }

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0.0 if isinstance(getattr(self, name), float) else 0)


class EvictionPolicy:
    """Victim selection over the set of resident blocks."""

    name = "abstract"
    #: whether :meth:`victim` consults the pinned-block set
    pin_aware = False

    def admit(self, block_id: int) -> None:
        """A block became resident."""
        raise NotImplementedError

    def touch(self, block_id: int) -> None:
        """A resident block was accessed."""
        raise NotImplementedError

    def forget(self, block_id: int) -> None:
        """A block left the pool (evicted or invalidated)."""
        raise NotImplementedError

    def victim(self, pinned: Set[int], avoid: Set[int]) -> Optional[int]:
        """Pick the next block to evict.

        ``pinned`` is advisory (only pin-aware policies consult it);
        ``avoid`` is mandatory — blocks a prefetch is staging must not be
        chosen.  Returns None when no block is evictable.
        """
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Evict the least-recently-used block (ignores pins)."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def admit(self, block_id: int) -> None:
        self._order[block_id] = None

    def touch(self, block_id: int) -> None:
        self._order.move_to_end(block_id)

    def forget(self, block_id: int) -> None:
        self._order.pop(block_id, None)

    def victim(self, pinned: Set[int], avoid: Set[int]) -> Optional[int]:
        for block_id in self._order:
            if block_id not in avoid:
                return block_id
        return None


class PinnedLRUPolicy(LRUPolicy):
    """LRU that never evicts pinned (tree/pivot) blocks while a choice exists.

    When every resident block is pinned the policy degrades to plain LRU
    rather than deadlocking; the pager counts those as ``forced_evictions``.
    """

    name = "pinned-lru"
    pin_aware = True

    def victim(self, pinned: Set[int], avoid: Set[int]) -> Optional[int]:
        fallback = None
        for block_id in self._order:
            if block_id in avoid:
                continue
            if block_id not in pinned:
                return block_id
            if fallback is None:
                fallback = block_id
        return fallback


class ClockPolicy(EvictionPolicy):
    """CLOCK / second-chance eviction: one reference bit per resident block."""

    name = "clock"

    def __init__(self) -> None:
        self._ring: list[int] = []
        self._ref: Dict[int, bool] = {}
        self._hand = 0

    def admit(self, block_id: int) -> None:
        self._ring.append(block_id)
        self._ref[block_id] = True

    def touch(self, block_id: int) -> None:
        self._ref[block_id] = True

    def forget(self, block_id: int) -> None:
        if block_id in self._ref:
            del self._ref[block_id]
            index = self._ring.index(block_id)
            self._ring.pop(index)
            if index < self._hand:
                self._hand -= 1
            if self._ring:
                self._hand %= len(self._ring)
            else:
                self._hand = 0

    def victim(self, pinned: Set[int], avoid: Set[int]) -> Optional[int]:
        if not self._ring:
            return None
        # two sweeps: the first clears reference bits, the second must find a
        # victim unless every block is in ``avoid``
        for _ in range(2 * len(self._ring)):
            block_id = self._ring[self._hand]
            self._hand = (self._hand + 1) % len(self._ring)
            if block_id in avoid:
                continue
            if self._ref.get(block_id, False):
                self._ref[block_id] = False
                continue
            return block_id
        return None


EVICTION_POLICIES = {
    "lru": LRUPolicy,
    "clock": ClockPolicy,
    "pinned-lru": PinnedLRUPolicy,
}


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Instantiate a registered eviction policy by name."""
    key = name.strip().lower().replace("_", "-")
    try:
        return EVICTION_POLICIES[key]()
    except KeyError:
        raise TierError(
            f"unknown eviction policy {name!r}; available: {', '.join(sorted(EVICTION_POLICIES))}"
        ) from None


class BlockPager:
    """Bounded device-memory pool of staged object blocks."""

    def __init__(self, device: Device, store: TieredObjectStore, config: TierConfig):
        self.device = device
        self.store = store
        self.config = config
        self.budget_bytes = int(config.memory_budget_bytes)
        self.policy = make_eviction_policy(config.eviction)
        self.prefetch_enabled = bool(config.prefetch)
        self.stats = PagerStats()
        self._resident: Dict[int, Allocation] = {}
        self._resident_bytes = 0
        self._dirty: Set[int] = set()
        self._prefetched: Set[int] = set()
        self._pins: Set[int] = set()
        #: blocks admitted by the gather in flight but not yet charged
        self._wave: Set[int] = set()
        self._wave_bytes = 0

    # ------------------------------------------------------------ inspection
    @property
    def resident_bytes(self) -> int:
        """Bytes of blocks currently staged in the device pool."""
        return self._resident_bytes

    @property
    def resident_blocks(self) -> list[int]:
        """Ids of the blocks currently staged (ascending)."""
        return sorted(self._resident)

    @property
    def pinned_blocks(self) -> Set[int]:
        """Blocks the pin-aware policy protects (holders of tree pivots)."""
        return set(self._pins)

    def is_resident(self, block_id: int) -> bool:
        return int(block_id) in self._resident

    # ------------------------------------------------------------------ pins
    def set_pins(self, block_ids: Iterable[int]) -> None:
        """Replace the pinned-block set (called after every (re)build/swap)."""
        self._pins = {int(b) for b in block_ids}

    def add_pins(self, block_ids: Iterable[int]) -> None:
        """Widen the pinned-block set without dropping the existing pins.

        Used by the incremental maintenance subsystem while a generation
        rebuild is in flight: descents still walk the old tree (its pivot
        blocks must stay protected) while construction keeps re-touching the
        replacement tree's freshly chosen pivots.  The swap narrows the set
        back via :meth:`set_pins`.
        """
        self._pins |= {int(b) for b in block_ids}

    # ---------------------------------------------------------------- faults
    def access(self, block_id: int) -> bool:
        """Fault ``block_id`` resident if needed; returns True on a hit."""
        return self.fault_runs((int(block_id),), (1,)) == 0

    def fault_runs(self, blocks: Sequence[int], counts: Sequence[int]) -> int:
        """Fault one gather's block runs, charging the misses in waves.

        Run ``i`` stands for ``counts[i]`` consecutive accesses to block
        ``blocks[i]``: the first is a hit or a miss, the rest are hits whose
        policy touches would be no-ops, so they are credited in bulk.  A
        block a run faulted earlier in the gather is a hit while it stays
        resident.  Misses are admitted into the pending wave, which is
        charged as one H2D transaction when the policy picks one of its
        blocks as a victim and when the gather ends (also when it ends in an
        error).  Returns the number of misses.
        """
        misses = 0
        try:
            for block_id, count in zip(blocks, counts):
                block_id = int(block_id)
                if block_id in self._resident:
                    self.stats.hits += 1
                    if block_id in self._prefetched:
                        self.stats.prefetch_hits += 1
                        self._prefetched.discard(block_id)
                    self.policy.touch(block_id)
                else:
                    self.stats.misses += 1
                    misses += 1
                    nbytes = self.store.block_nbytes(block_id)
                    self._make_room(nbytes, avoid=set())
                    self._stage(block_id, nbytes)
                self.stats.hits += int(count) - 1
        finally:
            self._charge_wave()
        return misses

    def prefetch(self, block_ids: Iterable[int]) -> int:
        """Stage the missing blocks of a candidate set in one transaction.

        Repeated ids are staged once.  The set never evicts its own blocks,
        so all staged bytes share a single ``fault_latency`` charge; blocks
        that cannot fit (the rest of the set already fills the pool) are
        skipped — they will fault on demand.  Returns how many blocks were
        staged.
        """
        unique = dict.fromkeys(int(b) for b in block_ids)  # first-seen order
        missing = [b for b in unique if b not in self._resident]
        staged = 0
        for block_id in missing:
            nbytes = self.store.block_nbytes(block_id)
            if not self._make_room(nbytes, avoid=self._wave, best_effort=True):
                continue
            try:
                self._stage(block_id, nbytes)
            except DeviceMemoryError:
                # other pools squeezed the device below our budget: prefetch
                # is best-effort, the block will fault on demand instead
                continue
            self._prefetched.add(block_id)
            staged += 1
        self._charge_wave()
        self.stats.prefetched_blocks += staged
        return staged

    # ----------------------------------------------------------------- waves
    def _stage(self, block_id: int, nbytes: int) -> None:
        """Admit a missing block into the pending (not yet charged) wave."""
        # allocate before charging the copy: a device-level OOM (other pools
        # squeezing the pager) must not leave a phantom transfer in the stats
        self._resident[block_id] = self.device.allocate(
            nbytes, label=f"tier-block-{block_id}", pool=PAGER_POOL
        )
        self._resident_bytes += nbytes
        self.policy.admit(block_id)
        self._wave.add(block_id)
        self._wave_bytes += nbytes

    def _charge_wave(self) -> None:
        """Charge the pending wave as one H2D transaction (no-op when empty)."""
        if not self._wave:
            return
        elapsed = self.device.transfer_to_device(
            self._wave_bytes, label=H2D_LABEL, latency=self.config.fault_latency
        )
        self.stats.bytes_h2d += self._wave_bytes
        self.stats.h2d_seconds += elapsed
        self.stats.transactions += 1
        self._wave.clear()
        self._wave_bytes = 0

    # -------------------------------------------------------------- eviction
    def _make_room(self, nbytes: int, avoid: Set[int], best_effort: bool = False) -> bool:
        """Evict until ``nbytes`` fit inside the budget; True when they do."""
        if nbytes > self.budget_bytes:
            if best_effort:
                return False
            raise TierError(
                f"object block of {nbytes} bytes exceeds the tier memory budget "
                f"of {self.budget_bytes} bytes; raise memory_budget_bytes or "
                f"shrink block_bytes"
            )
        while self.resident_bytes + nbytes > self.budget_bytes:
            victim = self.policy.victim(self._pins, avoid)
            if victim is None:
                if best_effort:
                    return False
                raise TierError(
                    "the block pager cannot evict: every resident block is "
                    "protected by the in-flight operation"
                )
            if self.policy.pin_aware and victim in self._pins:
                self.stats.forced_evictions += 1
            self._evict(victim)
        return True

    def _evict(self, block_id: int) -> None:
        if block_id in self._wave:
            # the wave's blocks are all resident together up to here
            self._charge_wave()
        allocation = self._resident.pop(block_id)
        self._resident_bytes -= allocation.nbytes
        if block_id in self._dirty:
            elapsed = self.device.transfer_to_host(
                allocation.nbytes, label=D2H_LABEL, latency=self.config.fault_latency
            )
            self.stats.bytes_d2h += allocation.nbytes
            self.stats.d2h_seconds += elapsed
            self.stats.writebacks += 1
            self._dirty.discard(block_id)
        self.device.free(allocation)
        self.policy.forget(block_id)
        self._prefetched.discard(block_id)
        self.stats.evictions += 1

    def mark_dirty(self, block_id: int) -> None:
        """Flag a resident block as device-modified (written back on evict)."""
        block_id = int(block_id)
        if block_id in self._resident:
            self._dirty.add(block_id)

    def invalidate(self, block_id: int) -> None:
        """Drop a resident copy made stale by a host-side write (no writeback)."""
        block_id = int(block_id)
        allocation = self._resident.pop(block_id, None)
        if allocation is None:
            return
        self._resident_bytes -= allocation.nbytes
        self.device.free(allocation)
        self.policy.forget(block_id)
        self._dirty.discard(block_id)
        self._prefetched.discard(block_id)
        self.stats.invalidations += 1

    def release(self) -> None:
        """Free every staged block (index close / teardown). No writebacks."""
        for block_id in list(self._resident):
            allocation = self._resident.pop(block_id)
            self.device.free(allocation)
            self.policy.forget(block_id)
        self._resident_bytes = 0
        self._dirty.clear()
        self._prefetched.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockPager({self.policy.name!r}, {len(self._resident)} blocks, "
            f"{self.resident_bytes}/{self.budget_bytes} B, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
