"""Demand pager staging host-memory object blocks into a device pool.

The :class:`BlockPager` owns a bounded region of simulated device memory
(allocated from the device's ``"pager"`` pool) and fills it with object
blocks on demand, evicting the least-recently-used block when one more does
not fit:

* an **access** to a resident block is a hit — no device traffic, the block
  becomes the most recently used;
* a **miss** evicts LRU victims until the block fits and allocates it in the
  pool.  The misses of one gather (:meth:`BlockPager.fault_runs` — every
  block a level-synchronous kernel reads is known before it launches) are
  charged as **waves**: one H2D transaction (``TierConfig.fault_latency``
  plus bytes/bandwidth) covers all missed blocks that are resident
  together.  A wave closes just before LRU picks one of its own blocks as a
  victim, and at the end of the gather, so hits, misses, evictions and the
  resident set are exactly those of faulting the blocks one access at a
  time — only the number of latency charges falls.  A single
  :meth:`BlockPager.access` is the one-block case;
* an **invalidation** (a host-side append made a resident copy stale) drops
  the block — the host copy is the newer one, and the object store is
  read-only on device, so nothing is ever written back.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from ..exceptions import TierError
from ..gpusim.device import Allocation, Device
from .config import TierConfig
from .store import TieredObjectStore

__all__ = ["BlockPager", "PagerStats", "PAGER_POOL", "H2D_LABEL", "PINNED_H2D_LABEL"]

#: Device memory pool the pager's block allocations are charged under.
PAGER_POOL = "pager"

#: ``ExecutionStats.transfer_seconds`` key the pager attributes traffic to.
H2D_LABEL = "pager-h2d"

#: ``ExecutionStats.transfer_seconds`` key of staging a store's pinned rows,
#: which the pager never holds (``TieredObjectStore.pinned``).
PINNED_H2D_LABEL = "pinned-h2d"


@dataclass
class PagerStats:
    """Counters describing the pager's behaviour since creation/reset."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: stale resident copies dropped after a host-side append
    invalidations: int = 0
    bytes_h2d: int = 0
    #: H2D transactions charged (demand-fault waves); each pays
    #: ``fault_latency`` once
    transactions: int = 0
    h2d_seconds: float = 0.0

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
            "invalidations": self.invalidations,
            "bytes_h2d": self.bytes_h2d,
            "transactions": self.transactions,
            "h2d_seconds": self.h2d_seconds,
        }

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0.0 if isinstance(getattr(self, name), float) else 0)


class BlockPager:
    """Bounded device-memory pool of staged object blocks, evicted LRU."""

    def __init__(self, device: Device, store: TieredObjectStore, config: TierConfig):
        self.device = device
        self.store = store
        self.config = config
        self.budget_bytes = config.memory_budget_bytes
        self.stats = PagerStats()
        #: staged blocks, least recently used first
        self._resident: "OrderedDict[int, Allocation]" = OrderedDict()
        self._resident_bytes = 0
        #: blocks admitted by the gather in flight but not yet charged
        self._wave: set[int] = set()
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

    def is_resident(self, block_id: int) -> bool:
        return int(block_id) in self._resident

    # ---------------------------------------------------------------- faults
    def access(self, block_id: int) -> bool:
        """Fault ``block_id`` resident if needed; returns True on a hit."""
        return self.fault_runs((int(block_id),), (1,)) == 0

    def fault_runs(self, blocks: Sequence[int], counts: Sequence[int]) -> int:
        """Fault one gather's block runs, charging the misses in waves.

        Run ``i`` stands for ``counts[i]`` consecutive accesses to block
        ``blocks[i]``: the first is a hit or a miss, the rest are hits on the
        block just made most recent, so they are credited in bulk.  A block a
        run faulted earlier in the gather is a hit while it stays resident.
        Misses are admitted into the pending wave, which is charged as one
        H2D transaction when LRU picks one of its blocks as a victim and when
        the gather ends (also when it ends in an error).  Returns the number
        of misses.
        """
        misses = 0
        try:
            for block_id, count in zip(blocks, counts):
                block_id = int(block_id)
                if block_id in self._resident:
                    self.stats.hits += 1
                    self._resident.move_to_end(block_id)
                else:
                    self.stats.misses += 1
                    misses += 1
                    nbytes = self.store.block_nbytes(block_id)
                    self._make_room(nbytes)
                    self._stage(block_id, nbytes)
                self.stats.hits += int(count) - 1
        finally:
            self._charge_wave()
        return misses

    # ----------------------------------------------------------------- waves
    def _stage(self, block_id: int, nbytes: int) -> None:
        """Admit a missing block into the pending (not yet charged) wave."""
        # allocate before charging the copy: a device-level OOM (other pools
        # squeezing the pager) must not leave a phantom transfer in the stats
        self._resident[block_id] = self.device.allocate(
            nbytes, label=f"tier-block-{block_id}", pool=PAGER_POOL
        )
        self._resident_bytes += nbytes
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
    def _make_room(self, nbytes: int) -> None:
        """Evict least-recently-used blocks until ``nbytes`` fit the budget."""
        if nbytes > self.budget_bytes:
            raise TierError(
                f"object block of {nbytes} bytes exceeds the tier memory budget "
                f"of {self.budget_bytes} bytes; raise memory_budget_bytes or "
                f"shrink block_bytes"
            )
        while self._resident_bytes + nbytes > self.budget_bytes:
            self._evict(next(iter(self._resident)))

    def _evict(self, block_id: int) -> None:
        if block_id in self._wave:
            # the wave's blocks are all resident together up to here
            self._charge_wave()
        self._drop(block_id)
        self.stats.evictions += 1

    def _drop(self, block_id: int) -> None:
        allocation = self._resident.pop(block_id)
        self._resident_bytes -= allocation.nbytes
        self.device.free(allocation)

    def invalidate(self, block_id: int) -> None:
        """Drop a resident copy made stale by a host-side write."""
        block_id = int(block_id)
        if block_id in self._resident:
            self._drop(block_id)
            self.stats.invalidations += 1

    def release(self) -> None:
        """Free every staged block (index close / teardown)."""
        for block_id in list(self._resident):
            self._drop(block_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockPager({len(self._resident)} blocks, "
            f"{self.resident_bytes}/{self.budget_bytes} B, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
