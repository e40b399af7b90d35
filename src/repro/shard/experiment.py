"""The sharding scale-out experiment (throughput vs shard count).

:func:`experiment_sharding_scaleout` measures what the multi-device layer
buys and what it costs, two ways:

* **Strong scaling** — one fixed dataset, shard counts swept.  Per-shard
  trees shrink as ``K`` grows, so batch-query makespan falls and throughput
  rises; the host-side merge term and the per-shard kernel-launch floor are
  what eventually bend the curve away from ideal.
* **Weak scaling** — per-shard data held constant (the dataset grows with
  ``K``).  Ideal scale-out keeps throughput flat; the measured efficiency
  column shows how close the scatter-gather layer gets.

Every strong-scaling row's answers are checked against a single-device GTS
over the same data (``correct`` column) — sharding must preserve exactness,
not just speed.  The timing compared is the coordinating timeline of
:class:`~repro.shard.ShardedGTS` (per-round makespan plus merge), against
the single device's time for the identical batch.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.gts import GTS
from ..datasets import DEFAULT_CARDINALITIES, get_dataset
from ..evalsuite.reporting import ExperimentResult
from ..evalsuite.workloads import make_workload
from ..gpusim.device import Device
from ..gpusim.specs import DeviceSpec
from ..gpusim.timing import throughput_per_minute
from .sharded import ShardedGTS

__all__ = ["experiment_sharding_scaleout"]


def experiment_sharding_scaleout(
    dataset_name: str = "tloc",
    shard_counts: Sequence[int] = (1, 2, 4),
    assignment: str = "round-robin",
    num_queries: int = 96,
    k: int = 16,
    node_capacity: int = 20,
    device_cores: int = 256,
    include_weak_scaling: bool = True,
    scale: float = 1.0,
    cardinality: Optional[int] = None,
    seed: int = 7,
) -> ExperimentResult:
    """Sweep the shard count; report throughput, speedup and exactness.

    Strong-scaling rows share one dataset of ``cardinality`` objects (the
    dataset default scaled by ``scale`` when omitted) and verify the sharded
    answers against a single-device GTS.  Weak-scaling rows hold
    ``cardinality / max(shard_counts)`` objects *per shard* and report the
    efficiency relative to one shard.

    ``device_cores`` narrows every (simulated) device: the stand-in datasets
    are ~500x smaller than the paper's, so on the full 4096-core spec a
    per-shard batch is kernel-launch-bound and scale-out has nothing left to
    divide.  Scaling the device down with the data — the same move
    ``fig8``/``repro compare`` make for device *memory* — restores the
    paper's compute-bound regime, which is the one a multi-GPU deployment
    actually shards.
    """
    if cardinality is None:
        cardinality = max(256, int(DEFAULT_CARDINALITIES[dataset_name] * scale))
    device_spec = DeviceSpec().with_cores(device_cores)
    dataset = get_dataset(dataset_name, cardinality=cardinality, seed=seed)
    workload = make_workload(dataset, num_queries=num_queries, k=k, seed=seed)

    result = ExperimentResult(
        experiment="sharding-scaleout",
        title=f"ShardedGTS scale-out on {dataset.name} "
        f"({cardinality} objects, {num_queries} queries, {assignment})",
    )

    # --- single-device reference: the exactness oracle and speedup baseline
    reference = GTS.build(
        dataset.objects,
        dataset.metric,
        node_capacity=node_capacity,
        device=Device(device_spec),
        seed=seed,
    )
    ref_range, ref_mrq_time, ref_knn, ref_knn_time = workload.measure(reference)
    reference.close()

    base_knn_time = None
    for shards in shard_counts:
        index = ShardedGTS.build(
            dataset.objects,
            dataset.metric,
            num_shards=int(shards),
            assignment=assignment,
            node_capacity=node_capacity,
            device_spec=device_spec,
            seed=seed,
        )
        build_time = index.device.stats.sim_time
        range_answers, mrq_time, knn_answers, knn_time = workload.measure(index)
        correct = range_answers == ref_range and knn_answers == ref_knn
        if base_knn_time is None:
            base_knn_time = knn_time
        result.add_row(
            mode="strong",
            shards=int(shards),
            cardinality=cardinality,
            build_time_s=build_time,
            mrq_throughput=throughput_per_minute(num_queries, mrq_time),
            mknn_throughput=throughput_per_minute(num_queries, knn_time),
            knn_speedup=base_knn_time / knn_time if knn_time > 0 else float("inf"),
            max_shard=max(index.shard_sizes),
            correct=correct,
            status="ok" if correct else "mismatch",
        )
        index.close()

    if include_weak_scaling:
        per_shard = max(256, cardinality // max(int(s) for s in shard_counts))
        base_weak_time = None
        for shards in shard_counts:
            n = per_shard * int(shards)
            weak_dataset = get_dataset(dataset_name, cardinality=n, seed=seed)
            weak_workload = make_workload(
                weak_dataset, num_queries=num_queries, k=k, seed=seed
            )
            index = ShardedGTS.build(
                weak_dataset.objects,
                weak_dataset.metric,
                num_shards=int(shards),
                assignment=assignment,
                node_capacity=node_capacity,
                device_spec=device_spec,
                seed=seed,
            )
            _, _, _, knn_time = weak_workload.measure(index)
            if base_weak_time is None:
                base_weak_time = knn_time
            result.add_row(
                mode="weak",
                shards=int(shards),
                cardinality=n,
                mknn_throughput=throughput_per_minute(num_queries, knn_time),
                efficiency=base_weak_time / knn_time if knn_time > 0 else float("inf"),
                max_shard=max(index.shard_sizes),
                status="ok",
            )
            index.close()

    result.notes = (
        "strong rows share one dataset (answers verified against a single-device "
        "GTS); weak rows hold per-shard data constant — efficiency is the "
        "one-shard kNN time over the K-shard time, 1.0 being ideal scale-out"
    )
    return result
