"""Out-of-core tiered memory subsystem (DESIGN.md §7).

Serves datasets larger than (simulated) device memory from a single device:
the object store stays host-resident, partitioned into fixed-size blocks
(:class:`TieredObjectStore`), and a demand pager (:class:`BlockPager`)
stages blocks into a bounded device-memory pool, evicting the least
recently used block and charging each gather's misses as co-resident H2D
waves through the :mod:`repro.gpusim` timing model.  This is the memory
hierarchy Faiss uses to push GPU similarity search past device capacity
(Johnson et al., "Billion-scale similarity search with GPUs") applied to
the GTS tree: the tree and its internal-node pivots (the store's pinned
prefix) stay hot on device, cold object blocks page in on demand.

Enable it by passing ``tier=TierConfig(memory_budget_bytes=...)`` to
:class:`~repro.core.gts.GTS` / :class:`~repro.shard.ShardedGTS`; the
``"memory-tiering"`` experiment sweeps device-memory budgets.
"""

from .config import DEFAULT_BLOCK_BYTES, DEFAULT_FAULT_LATENCY, TierConfig
from .pager import H2D_LABEL, PAGER_POOL, PINNED_H2D_LABEL, BlockPager, PagerStats
from .store import PagedObjects, TieredObjectStore

__all__ = [
    "TierConfig",
    "DEFAULT_BLOCK_BYTES",
    "DEFAULT_FAULT_LATENCY",
    "TieredObjectStore",
    "PagedObjects",
    "BlockPager",
    "PagerStats",
    "PAGER_POOL",
    "H2D_LABEL",
    "PINNED_H2D_LABEL",
]
