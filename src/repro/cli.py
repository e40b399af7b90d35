"""Command-line interface of the GTS reproduction.

The CLI wraps the library's main workflows so they can be driven without
writing Python:

``repro list datasets|methods|metrics|experiments``
    Show what the library ships.
``repro build``
    Generate one of the synthetic stand-in datasets, build a GTS index over
    it and (optionally) save the index archive.
``repro query``
    Load a saved index and answer a batch of kNN / range queries sampled
    from its own objects, reporting simulated throughput.
``repro compare``
    Build several methods (GTS and baselines) over one dataset and print a
    throughput/storage comparison table.
``repro experiment``
    Re-run one of the paper's tables/figures (the same functions the
    benchmark harness uses) and print its rows, optionally writing CSV.
``repro serve-sim``
    Simulate the concurrent query-serving layer: N open-loop clients issue
    mixed range/kNN/insert/delete requests, a micro-batching scheduler
    coalesces them, and the throughput/latency-percentile report is printed
    (see DESIGN.md §4).  With ``--shards K`` the service runs over a
    multi-device :class:`~repro.shard.ShardedGTS` instead of a single-GPU
    index (DESIGN.md §6).

Every command prints plain text to stdout; exit status is 0 on success and
2 on argument errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .baselines import available_methods
from .core.gts import GTS
from .datasets import available_datasets, get_dataset
from .evalsuite import experiments as _experiments
from .evalsuite import extensions as _extensions
from .evalsuite.reporting import format_bytes, format_seconds, format_throughput, rows_to_csv
from .evalsuite.runner import MethodRunner
from .evalsuite.workloads import make_workload, radius_for_selectivity
from .gpusim.specs import DeviceSpec, MiB
from .metrics import available_metrics
from .service import experiment as _service_experiment
from .service.scheduler import POLICY_REGISTRY, make_policy
from .shard import ASSIGNMENT_POLICIES, ShardedGTS
from .shard import experiment as _shard_experiment
from .tier import TierConfig
from .tier import experiment as _tier_experiment

__all__ = ["main", "build_parser", "EXPERIMENT_REGISTRY"]

#: Experiment-name -> callable registry exposed by ``repro experiment``.
EXPERIMENT_REGISTRY = {
    "table4": _experiments.experiment_table4_construction,
    "table5": _experiments.experiment_table5_cache_size,
    "fig5": _experiments.experiment_fig5_updates,
    "fig6": _experiments.experiment_fig6_node_capacity,
    "fig7": _experiments.experiment_fig7_radius_and_k,
    "fig8": _experiments.experiment_fig8_gpu_memory,
    "fig9": _experiments.experiment_fig9_batch_size,
    "fig10": _experiments.experiment_fig10_identical_objects,
    "fig11": _experiments.experiment_fig11_cardinality,
    "ablation-cost-model": _experiments.ablation_cost_model,
    "ablation-two-stage": _experiments.ablation_two_stage,
    "ablation-prune-pivot": _experiments.ablation_prune_and_pivot,
    "extended-baselines": _extensions.experiment_extended_baselines,
    "approx-tradeoff": _extensions.experiment_approximate_tradeoff,
    "service-batching": _service_experiment.experiment_service_batching,
    "update-heavy-serving": _service_experiment.experiment_update_heavy_serving,
    "sharding-scaleout": _shard_experiment.experiment_sharding_scaleout,
    "memory-tiering": _tier_experiment.experiment_memory_tiering,
}


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------
def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {value}")
    return number


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GTS (GPU-based Tree index for Similarity search) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list datasets, methods, metrics or experiments")
    p_list.add_argument(
        "what",
        choices=("datasets", "methods", "metrics", "experiments"),
        help="which registry to print",
    )

    p_build = sub.add_parser("build", help="generate a dataset and build a GTS index over it")
    _add_dataset_arguments(p_build)
    p_build.add_argument("--node-capacity", type=int, default=20, help="tree fan-out Nc (default 20)")
    p_build.add_argument("--pivot-strategy", default="fft", help="pivot selection strategy (default fft)")
    p_build.add_argument("--output", default=None, help="path to save the built index archive")

    p_query = sub.add_parser("query", help="answer queries with a saved index")
    p_query.add_argument("--index", required=True, help="index archive written by 'repro build'")
    p_query.add_argument("--num-queries", type=int, default=16, help="queries per batch (default 16)")
    p_query.add_argument("--k", type=int, default=8, help="k for kNN queries (default 8)")
    p_query.add_argument("--radius", type=float, default=None, help="also run range queries with this radius")
    p_query.add_argument("--seed", type=int, default=7, help="query sampling seed")
    p_query.add_argument("--show", type=int, default=3, help="how many per-query answers to print")

    p_compare = sub.add_parser("compare", help="compare methods on one dataset")
    _add_dataset_arguments(p_compare)
    p_compare.add_argument(
        "--methods",
        default="GTS,MVPT,BST",
        help="comma-separated method names (see 'repro list methods')",
    )
    p_compare.add_argument("--num-queries", type=int, default=16, help="queries per batch (default 16)")
    p_compare.add_argument("--k", type=int, default=8, help="k for kNN queries (default 8)")
    p_compare.add_argument("--device-memory-mb", type=float, default=None, help="simulated GPU memory in MB")

    p_serve = sub.add_parser(
        "serve-sim",
        help="simulate the concurrent query-serving layer over a GTS index",
    )
    _add_dataset_arguments(p_serve)
    p_serve.add_argument("--node-capacity", type=int, default=20, help="tree fan-out Nc (default 20)")
    p_serve.add_argument(
        "--shards", type=_positive_int, default=1,
        help="serve a multi-device sharded index with this many shards (default 1 = single GPU)",
    )
    p_serve.add_argument(
        "--shard-policy", choices=sorted(ASSIGNMENT_POLICIES), default="round-robin",
        help="shard-assignment policy when --shards > 1 (default round-robin)",
    )
    p_serve.add_argument(
        "--device-memory", type=_positive_float, default=None, metavar="MB",
        help="serve out-of-core: cap the device-resident object pool at this many "
        "MB and page blocks from host memory on demand (default: fully resident)",
    )
    p_serve.add_argument(
        "--block-kb", type=_positive_float, default=16.0,
        help="object-block size in KB for the tiered pool (default 16)",
    )
    p_serve.add_argument(
        "--maintenance", action="store_true",
        help="non-blocking updates: cache overflows schedule generation-swap "
        "rebuilds advanced in bounded slices between micro-batches (DESIGN.md §9)",
    )
    p_serve.add_argument(
        "--update-heavy", action="store_true",
        help="use the update-heavy request mix (50%% inserts) instead of the "
        "query-heavy default",
    )
    p_serve.add_argument(
        "--cache-kb", type=float, default=None,
        help="cache-table budget in KB (default: the paper's ~5 KB)",
    )
    p_serve.add_argument("--clients", type=int, default=6, help="number of simulated clients (default 6)")
    p_serve.add_argument(
        "--rate", type=float, default=100_000.0,
        help="per-client request rate in requests per simulated second (default 1e5)",
    )
    p_serve.add_argument(
        "--duration", type=float, default=2e-3,
        help="simulated seconds of arrivals to generate (default 2e-3)",
    )
    p_serve.add_argument(
        "--policy", choices=sorted(POLICY_REGISTRY),
        default="greedy", help="micro-batching policy (default greedy)",
    )
    p_serve.add_argument("--max-batch", type=int, default=64, help="micro-batch size budget (default 64)")
    p_serve.add_argument(
        "--max-wait", type=float, default=200e-6,
        help="max simulated seconds the oldest request may wait (default 200e-6)",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=None,
        help="relative completion deadline per request in simulated seconds",
    )
    p_serve.add_argument("--k", type=int, default=8, help="k for kNN requests (default 8)")
    p_serve.add_argument(
        "--selectivity", type=float, default=0.01,
        help="range-query selectivity used to derive the radius (default 0.01)",
    )
    p_serve.add_argument(
        "--verify", action="store_true",
        help="also replay the stream sequentially and check the answers match",
    )

    p_exp = sub.add_parser("experiment", help="re-run one of the paper's tables or figures")
    p_exp.add_argument("name", choices=sorted(EXPERIMENT_REGISTRY), help="experiment id")
    p_exp.add_argument("--scale", type=float, default=0.2, help="dataset scale factor (default 0.2)")
    p_exp.add_argument("--num-queries", type=int, default=None, help="override the number of queries")
    p_exp.add_argument("--csv", default=None, help="also write the rows to this CSV file")

    return parser


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="tloc",
        choices=available_datasets(),
        help="synthetic stand-in dataset (default tloc)",
    )
    parser.add_argument("--cardinality", type=int, default=None, help="number of objects to generate")
    parser.add_argument("--seed", type=int, default=7, help="dataset generation seed")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    entries = {
        "datasets": available_datasets,
        "methods": available_methods,
        "metrics": available_metrics,
        "experiments": lambda: sorted(EXPERIMENT_REGISTRY),
    }[args.what]()
    for name in entries:
        print(name)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    dataset = get_dataset(args.dataset, cardinality=args.cardinality, seed=args.seed)
    print(f"dataset    : {dataset.name} ({dataset.cardinality} objects, metric {dataset.metric.name})")
    index = GTS.build(
        dataset.objects,
        dataset.metric,
        node_capacity=args.node_capacity,
        pivot_strategy=args.pivot_strategy,
        seed=args.seed,
    )
    build = index.build_result
    print(f"height     : {index.height}")
    print(f"build time : {format_seconds(build.sim_time)} (simulated)")
    print(f"distances  : {build.distance_computations}")
    print(f"storage    : {format_bytes(index.storage_bytes)}")
    if args.output:
        path = index.save(args.output)
        print(f"saved      : {path}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = GTS.load(args.index)
    print(f"index      : {index.num_objects} objects, Nc={index.node_capacity}, metric {index.metric.name}")
    rng = np.random.default_rng(args.seed)
    live_ids = [int(i) for i in index._indexed_ids if index.is_live(int(i))]
    chosen = rng.choice(live_ids, size=min(args.num_queries, len(live_ids)), replace=False)
    queries = [index.get_object(int(i)) for i in chosen]

    before = index.device.stats.sim_time
    answers = index.knn_query_batch(queries, args.k)
    elapsed = index.device.stats.sim_time - before
    throughput = 60.0 * len(queries) / elapsed if elapsed > 0 else float("inf")
    print(f"kNN batch  : {len(queries)} queries, k={args.k}, "
          f"{format_seconds(elapsed)} simulated, {format_throughput(throughput)}")
    for qi in range(min(args.show, len(queries))):
        shown = ", ".join(f"{oid}:{dist:.4g}" for oid, dist in answers[qi][: args.k])
        print(f"  query {int(chosen[qi])}: {shown}")

    if args.radius is not None:
        before = index.device.stats.sim_time
        results = index.range_query_batch(queries, args.radius)
        elapsed = index.device.stats.sim_time - before
        sizes = [len(r) for r in results]
        print(f"MRQ batch  : radius={args.radius}, avg answer size {np.mean(sizes):.1f}, "
              f"{format_seconds(elapsed)} simulated")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = get_dataset(args.dataset, cardinality=args.cardinality, seed=args.seed)
    workload = make_workload(dataset, num_queries=args.num_queries, k=args.k, seed=args.seed)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in available_methods()]
    if unknown:
        print(f"error: unknown methods {', '.join(unknown)}; see 'repro list methods'", file=sys.stderr)
        return 2
    device_spec = None
    if args.device_memory_mb is not None:
        device_spec = DeviceSpec(memory_bytes=int(args.device_memory_mb * MiB))

    header = f"{'method':<12} {'build':>12} {'storage':>10} {'kNN thpt':>16} {'distances':>12} {'status':>8}"
    print(f"dataset: {dataset.name} ({dataset.cardinality} objects), "
          f"{args.num_queries} queries, k={args.k}")
    print(header)
    print("-" * len(header))
    for method in methods:
        runner = MethodRunner(method, dataset, device_spec=device_spec)
        build = runner.build()
        if build.failed:
            print(f"{method:<12} {'-':>12} {'-':>10} {'-':>16} {'-':>12} {build.status:>8}")
            continue
        knn = runner.run_knn(workload.queries, workload.k)
        print(
            f"{method:<12} {format_seconds(build.sim_time):>12} "
            f"{format_bytes(knn.storage_bytes):>10} {format_throughput(knn.throughput):>16} "
            f"{knn.distance_computations:>12} {knn.status:>8}"
        )
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from .core.gts import DEFAULT_CACHE_BYTES
    from .service import GTSService, MaintenanceHook, WorkloadSpec, generate_workload, summarize
    from .service.experiment import HOLDOUT_FRACTION, UPDATE_HEAVY_MIX, sequential_replay
    from .service.workload import DEFAULT_MIX

    dataset = get_dataset(args.dataset, cardinality=args.cardinality, seed=args.seed)
    num_indexed = max(2, int(dataset.cardinality * (1.0 - HOLDOUT_FRACTION)))
    radius = radius_for_selectivity(
        dataset.objects[:num_indexed], dataset.metric, args.selectivity
    )
    print(f"dataset    : {dataset.name} ({num_indexed} indexed, "
          f"{dataset.cardinality - num_indexed} held out for inserts)")

    tier = None
    if args.device_memory is not None:
        tier = TierConfig(
            memory_budget_bytes=max(1, int(args.device_memory * MiB)),
            block_bytes=max(1, int(args.block_kb * 1024)),
        )
        print(f"tiering    : {args.device_memory} MB device pool, "
              f"LRU eviction, blocks {args.block_kb} KB")

    cache_bytes = (
        DEFAULT_CACHE_BYTES if args.cache_kb is None else max(1, int(args.cache_kb * 1024))
    )
    if args.shards > 1:
        index = ShardedGTS.build(
            dataset.objects[:num_indexed],
            dataset.metric,
            num_shards=args.shards,
            assignment=args.shard_policy,
            node_capacity=args.node_capacity,
            cache_capacity_bytes=cache_bytes,
            seed=args.seed,
            tier=tier,
        )
        print(f"index      : {args.shards} shards ({args.shard_policy}), "
              f"sizes {index.shard_sizes}")
    else:
        index = GTS.build(
            dataset.objects[:num_indexed],
            dataset.metric,
            node_capacity=args.node_capacity,
            cache_capacity_bytes=cache_bytes,
            seed=args.seed,
            tier=tier,
        )
    spec = WorkloadSpec(
        num_clients=args.clients,
        rate_per_client=args.rate,
        duration=args.duration,
        mix=dict(UPDATE_HEAVY_MIX if args.update_heavy else DEFAULT_MIX),
        radius=radius,
        k=args.k,
        deadline=args.deadline,
        seed=args.seed,
    )
    workload = generate_workload(dataset.objects, num_indexed, spec)
    counts = ", ".join(f"{kind}={n}" for kind, n in sorted(workload.kind_counts().items()))
    print(f"workload   : {len(workload.requests)} requests from {args.clients} clients "
          f"({counts})")

    policy_kwargs = {"max_batch_size": args.max_batch, "max_wait": args.max_wait}
    service = GTSService(
        index,
        policy=make_policy(args.policy, **policy_kwargs),
        maintenance=MaintenanceHook() if args.maintenance else None,
    )
    if tier is not None:
        # report steady-state serving traffic, not the build's streaming pass
        for shard in index.shards if args.shards > 1 else [index]:
            shard.pager.stats.reset()
        serve_snapshot = index.device.snapshot()
    responses = service.serve(workload.requests)
    report = summarize(responses, service.batches, service.maintenance_records)
    print(f"policy     : {args.policy} (max batch {args.max_batch}, "
          f"max wait {args.max_wait * 1e6:.0f} us"
          f"{', non-blocking maintenance' if args.maintenance else ''})")
    print(report.to_text(title=f"{args.policy} policy on {dataset.name}"))
    if args.maintenance:
        print(f"maintenance: {report.num_maintenance_slices} slices, "
              f"{report.rebuilds_completed} generation swaps, "
              f"{report.maintenance_time * 1e3:.3f} ms total "
              f"(max slice {report.max_slice_time * 1e6:.1f} us); "
              f"automatic rebuilds {index.automatic_rebuild_count}")

    if tier is not None:
        if args.shards > 1:
            pager = index.pager_stats()
        else:
            pager = index.pager.stats.as_dict()
        delta = index.device.stats.delta_since(serve_snapshot)
        print(f"pager      : hit rate {pager['hit_rate']:.3f} "
              f"({pager['hits']} hits / {pager['misses']} misses, "
              f"{pager['evictions']} evictions) while serving")
        print(f"transfers  : h2d {delta.transfer_seconds.get('pager-h2d', 0.0) * 1e3:.3f} ms "
              f"(paging), d2h {delta.transfer_seconds.get('results-d2h', 0.0) * 1e3:.3f} ms "
              "(results)")

    if args.verify:
        oracle = GTS.build(
            dataset.objects[:num_indexed],
            dataset.metric,
            node_capacity=args.node_capacity,
            cache_capacity_bytes=cache_bytes,
            seed=args.seed,
        )
        expected = sequential_replay(oracle, workload.requests)
        got = [r.result for r in responses]
        if got != expected:
            print("verify     : MISMATCH against sequential replay", file=sys.stderr)
            return 1
        print("verify     : identical to sequential replay")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    fn = EXPERIMENT_REGISTRY[args.name]
    kwargs = {"scale": args.scale}
    if args.num_queries is not None and "num_queries" in inspect.signature(fn).parameters:
        kwargs["num_queries"] = args.num_queries
    result = fn(**kwargs)
    print(result.to_text())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(rows_to_csv(result.rows))
        print(f"wrote {args.csv}")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "build": _cmd_build,
        "query": _cmd_query,
        "compare": _cmd_compare,
        "serve-sim": _cmd_serve_sim,
        "experiment": _cmd_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
