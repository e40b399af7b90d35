"""Repeated tiered, sharded index builds: the workload ``make profile-build`` profiles.

Each of 20 rounds builds a 2-shard :class:`~repro.ShardedGTS` over 20,000
tloc points (2-d, L2), each shard paging its objects through a pool of a
quarter of its bytes in default-sized blocks — the set-up of the serving
benchmark's out-of-core workload.  Prints each build's host seconds and
pager counters, then the median and quartiles of the build times, so a
profile of this script is a profile of construction, partitioning and
build-time paging, and one run on each of two trees compares their set-up::

    PYTHONPATH=src python benchmarks/profile_build.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import EuclideanDistance, ShardedGTS, TierConfig
from repro.datasets import generate_tloc

ROUNDS = 20
CARDINALITY = 20_000
SHARDS = 2


def main() -> None:
    points = generate_tloc(CARDINALITY).objects
    tier = TierConfig(memory_budget_bytes=points.nbytes // SHARDS // 4)
    times_ms = []
    for round_index in range(ROUNDS):
        start = time.perf_counter()
        index = ShardedGTS.build(
            points, EuclideanDistance(), num_shards=SHARDS, seed=round_index, tier=tier
        )
        times_ms.append((time.perf_counter() - start) * 1e3)
        stats = index.pager_stats()
        print(
            f"build {round_index}: {times_ms[-1]:.1f} ms, {stats['misses']} misses, "
            f"{stats['transactions']} H2D transactions"
        )
        index.close()
    q1, median, q3 = np.percentile(times_ms, [25, 50, 75])
    print(f"build time over {ROUNDS} builds: median {median:.1f} ms, quartiles {q1:.1f}-{q3:.1f} ms")


if __name__ == "__main__":
    main()
