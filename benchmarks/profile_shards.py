"""Host cost of a sharded kNN query as the shard count grows.

Builds :class:`~repro.ShardedGTS` indexes over 40,000 tloc points (2-d, L2)
at 1, 2, 4 and 8 shards, each once resident and once tiered (every shard
paging its objects through a pool of a quarter of its bytes, in blocks of
at most 16 KiB and a quarter of the pool), and times kNN queries
(``k = 8``) at batch 1 and batch 16.  For each index it prints the median
and quartiles of the host microseconds per query: one sample per batch, the
batch's wall-clock time divided by its size.  The figures show how much of
a query's host time is paid once per shard::

    PYTHONPATH=src python benchmarks/profile_shards.py
    PYTHONPATH=src python benchmarks/profile_shards.py --shards 1 2 --queries 100

It reports and asserts nothing; like the serving benchmark, BLAS runs on
one thread.
"""

from __future__ import annotations

import argparse
import os
import time

K = 8
CARDINALITY = 40_000
BATCH_SIZES = (1, 16)
BLOCK_BYTES = 16 * 1024


def _per_query_us(index, queries, batch_size: int, batches: int) -> list[float]:
    """Host µs per query of ``batches`` kNN batches of ``batch_size`` queries."""
    index.knn_query_batch(queries[:batch_size], K)  # warm-up
    samples = []
    for b in range(batches):
        start = (b * batch_size) % (len(queries) - batch_size + 1)
        batch = queries[start : start + batch_size]
        began = time.perf_counter()
        index.knn_query_batch(batch, K)
        samples.append((time.perf_counter() - began) * 1e6 / batch_size)
    return samples


def main(argv=None) -> None:
    # one BLAS thread, as in the serving benchmark (read when NumPy loads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import numpy as np

    from repro import EuclideanDistance, ShardedGTS, TierConfig
    from repro.datasets import generate_tloc

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument(
        "--queries", type=int, default=400, help="queries timed per cell (at least 10 batches)"
    )
    parser.add_argument("--cardinality", type=int, default=CARDINALITY)
    args = parser.parse_args(argv)

    points = generate_tloc(args.cardinality).objects
    rng = np.random.default_rng(7)
    # queries near the data, as in the serving benchmark's uniform kNN load
    queries = list(points[rng.choice(len(points), size=512, replace=False)] + 0.01)
    print(f"host us per kNN query (k={K}), {args.cardinality} tloc points: median [q1, q3]")
    print(f"{'mode':<9}{'shards':>7}" + "".join(f"{'batch ' + str(b):>26}" for b in BATCH_SIZES))
    for mode in ("resident", "tiered"):
        for num_shards in args.shards:
            tier = None
            if mode == "tiered":
                budget = points.nbytes // num_shards // 4
                block = min(BLOCK_BYTES, budget // 4)
                tier = TierConfig(memory_budget_bytes=budget, block_bytes=block)
            index = ShardedGTS.build(
                points, EuclideanDistance(), num_shards=num_shards, seed=3, tier=tier
            )
            cells = []
            for batch_size in BATCH_SIZES:
                batches = max(10, args.queries // batch_size)
                q1, median, q3 = np.percentile(
                    _per_query_us(index, queries, batch_size, batches), [25, 50, 75]
                )
                cells.append(f"{median:>10.0f} [{q1:>5.0f}, {q3:>5.0f}]")
            index.close()
            print(f"{mode:<9}{num_shards:>7}" + "".join(f"{cell:>26}" for cell in cells))


if __name__ == "__main__":
    main()
