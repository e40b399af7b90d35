"""Out-of-core GTS: serve a dataset larger than the device-memory pool.

Run with::

    python examples/out_of_core.py

The script builds a fully-resident GTS index and a *tiered* one whose
device-resident object pool is capped at 25% of the dataset's payload
bytes (DESIGN.md §7): the object store stays in simulated host memory,
split into fixed-size blocks, and a demand pager stages blocks onto the
device, evicting the least recently used block.  It then shows the tiered answers are identical while the
pager's hit rate, eviction traffic and attributed host↔device transfer
time tell you what the smaller memory footprint costs.
"""

from __future__ import annotations

import numpy as np

from repro import GTS, EuclideanDistance, TierConfig
from repro.core.construction import objects_nbytes


def main() -> None:
    rng = np.random.default_rng(42)
    centers = rng.normal(scale=10.0, size=(8, 2))
    points = centers[rng.integers(0, 8, size=6000)] + rng.normal(scale=0.6, size=(6000, 2))
    metric = EuclideanDistance()
    dataset_bytes = objects_nbytes(points)
    print(f"dataset        : {len(points)} points, {dataset_bytes / 1024:.1f} KB payload")

    # --- the fully-resident reference ------------------------------------
    resident = GTS.build(points, metric, node_capacity=20, seed=7)
    queries = points[rng.integers(0, len(points), size=64)]
    before = resident.device.stats.sim_time
    expected = resident.knn_query_batch(queries, 10)
    resident_time = resident.device.stats.sim_time - before

    # --- the tiered index: device pool capped at 25% of the dataset ------
    tier = TierConfig(
        memory_budget_bytes=dataset_bytes // 4,
        block_bytes=max(64, dataset_bytes // 200),
    )
    tiered = GTS.build(points, metric, node_capacity=20, seed=7, tier=tier)
    print(f"device pool    : {tier.memory_budget_bytes / 1024:.1f} KB "
          f"({tiered.pager.store.num_blocks} blocks of "
          f"{tier.block_bytes} B, LRU eviction)")

    tiered.pager.stats.reset()
    snapshot = tiered.device.snapshot()
    answers = tiered.knn_query_batch(queries, 10)
    delta = tiered.device.stats.delta_since(snapshot)

    print(f"identical      : {answers == expected}")
    pager = tiered.pager.stats
    print(f"pager          : hit rate {pager.hit_rate:.3f} "
          f"({pager.hits} hits, {pager.misses} misses, {pager.evictions} evictions)")
    print(f"paging traffic : {pager.bytes_h2d / 1024:.1f} KB staged host→device in "
          f"{pager.transactions} transactions, "
          f"{delta.transfer_seconds.get('pager-h2d', 0.0) * 1e3:.3f} ms attributed")
    print(f"time           : resident {resident_time * 1e6:.1f} us vs "
          f"tiered {delta.sim_time * 1e6:.1f} us (simulated)")
    peaks = tiered.device.stats.pool_peak_bytes
    print(f"memory peaks   : tree {peaks.get('tree', 0) / 1024:.1f} KB, "
          f"paged blocks {peaks.get('pager', 0) / 1024:.1f} KB "
          f"(vs {dataset_bytes / 1024:.1f} KB resident objects)")

    # streaming updates keep working: the store grows host-side, queries
    # merge the cache table exactly as in resident mode
    new_id = tiered.insert(np.array([0.0, 0.0]))
    hit = tiered.knn_query(np.array([0.0, 0.0]), 1)
    print(f"insert + query : object {new_id} found at distance {hit[0][1]:.3f}")

    resident.close()
    tiered.close()
    tiered.device.assert_no_leaks()
    print("clean shutdown : every simulated allocation freed")


if __name__ == "__main__":
    main()
