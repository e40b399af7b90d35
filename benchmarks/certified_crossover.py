"""Host time of the certified leaf filter's two row sides, by candidate share.

``core.search._certified_survivors`` bounds a verify call's candidate pairs
either against the whole store matrix (a view) or against a gather of the
call's distinct rows, and takes the view when those rows are at least
``STORE_VIEW_SHARE`` of the store.  This script times both sides, forced,
on synthetic angular calls over a grid of store sizes, dimensions, queries
per call and candidate shares of the store (each query's candidates are
60% of the call's distinct rows, about what leaf segments give), and prints
the median milliseconds of each side and their ratio::

    PYTHONPATH=src python benchmarks/certified_crossover.py
    PYTHONPATH=src python benchmarks/certified_crossover.py --rows 20000 --dims 300 --queries 40

A ratio below 1 means the view is faster.  Like the serving benchmark, BLAS
runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import time


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def main(argv=None) -> None:
    # one BLAS thread, as in the benchmark (read when NumPy loads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import numpy as np

    from repro.core import search
    from repro.core.objectstore import ColumnarStore
    from repro.metrics import AngularDistance

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=_ints, default=[2000, 20000])
    parser.add_argument("--dims", type=_ints, default=[8, 64, 300])
    parser.add_argument("--queries", type=_ints, default=[1, 10, 40])
    parser.add_argument("--shares", type=_floats, default=[0.3, 0.5, 0.7, 0.9])
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args(argv)

    metric = AngularDistance()
    rng = np.random.default_rng(0)
    default_share = search.STORE_VIEW_SHARE
    # 0 forces the view; above 1 no call can span the store
    sides = {"view": 0.0, "gather": 1.5}
    try:
        for n in args.rows:
            for d in args.dims:
                store = ColumnarStore(rng.normal(size=(n, d)))
                store.metric_digest(metric)
                for nq in args.queries:
                    queries = rng.normal(size=(nq, d))
                    results = search.BoundedTriples(nq, None, radii=np.full(nq, 0.45))
                    calls = max(1, min(50, int(2e6 // (n * d * nq))))
                    for share in args.shares:
                        rows = rng.choice(n, size=max(1, int(share * n)), replace=False)
                        segments = [
                            np.sort(rng.choice(rows, size=max(1, int(0.6 * len(rows))), replace=False))
                            for _ in range(nq)
                        ]
                        ids = np.concatenate(segments)
                        boundaries = np.cumsum([0] + [len(s) for s in segments])
                        ms = {}
                        for side, value in sides.items():
                            search.STORE_VIEW_SHARE = value
                            times = []
                            for _ in range(args.repeats):
                                start = time.perf_counter()
                                for _ in range(calls):
                                    search._certified_survivors(
                                        metric, store, queries, boundaries, ids, results, np.arange(nq)
                                    )
                                times.append((time.perf_counter() - start) / calls)
                            ms[side] = float(np.median(times)) * 1e3
                        print(
                            f"rows {n:6d}  dim {d:4d}  queries {nq:3d}  share {share:.2f}  "
                            f"view {ms['view']:8.3f} ms  gather {ms['gather']:8.3f} ms  "
                            f"ratio {ms['view'] / ms['gather']:.2f}",
                            flush=True,
                        )
    finally:
        search.STORE_VIEW_SHARE = default_share


if __name__ == "__main__":
    main()
