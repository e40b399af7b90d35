"""Host profile of one serving-benchmark workload, index builds excluded.

Generates a perfbench workload's streams for a seed, and for each stream
builds a fresh index and serving front end exactly as the benchmark does
(``perfbench.workloads.build_index`` / ``make_service``), then runs
``GTSService.serve`` over the stream's requests under cProfile.  Only the
serving calls are profiled, so the listing — the top 25 functions by self
time — shows where request serving spends host time.  The raw stats are
left in ``profile_serve.out``::

    PYTHONPATH=src python benchmarks/profile_serve.py hotkey-vector-mixed
    PYTHONPATH=src python benchmarks/profile_serve.py churn-tloc-updates --seed 2 --streams 1

Like the benchmark, BLAS runs on one thread.  cProfile charges every Python
call but not the work inside NumPy, which shifts the proportions: use the
listing to find candidates and ``perfbench/run.py`` to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = "profile_serve.out"
TOP = 25


def main(argv=None) -> None:
    # one BLAS thread, as in the benchmark (read when NumPy loads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, build_index, make_inputs, make_service

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--streams", type=int, default=None, help="streams to serve (default: all)")
    args = parser.parse_args(argv)

    inputs = make_inputs(WORKLOADS[args.workload], args.seed)
    streams = inputs.streams if args.streams is None else inputs.streams[: args.streams]
    profile = cProfile.Profile()
    for stream in streams:
        index = build_index(inputs, stream)
        service = make_service(index, inputs.config)
        profile.enable()
        responses = service.serve(stream.requests)
        profile.disable()
        print(f"served {len(responses)} requests in {len(service.batches)} batches")
        index.close()
    profile.dump_stats(OUTPUT)
    pstats.Stats(OUTPUT).sort_stats("tottime").print_stats(TOP)


if __name__ == "__main__":
    main()
