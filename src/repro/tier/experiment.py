"""The memory-tiering experiment (out-of-core GTS vs. device-memory budget).

:func:`experiment_memory_tiering` answers the question the tier subsystem
exists for: *what does it cost to serve a dataset from a device pool smaller
than the dataset?*  It sweeps the device-memory cap (as a fraction of the
dataset's payload bytes, 100% → 10%) of the LRU demand pager, and for every
cap:

* verifies the tiered answers (range **and** kNN) are identical to a
  fully-resident single-device GTS over the same data — tiering must be a
  pure performance trade, never a correctness one;
* reports the pager's hit rate, miss and eviction counts, the number of
  H2D transactions the misses were charged as (a gather's co-resident
  misses share one), and the transfer seconds attributed in
  ``ExecutionStats.transfer_seconds`` (``pager-h2d`` H2D paging,
  ``results-d2h`` result gathering);
* reports the per-pool memory high-water marks (tree vs. paged blocks) so
  the row shows what actually occupied device memory.

The block size is chosen so the dataset spans many blocks with only a
handful of objects per block, so even the 10% cap holds several blocks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.construction import objects_nbytes
from ..core.gts import GTS
from ..datasets import DEFAULT_CARDINALITIES, get_dataset
from ..evalsuite.reporting import ExperimentResult
from ..evalsuite.workloads import make_workload
from ..gpusim.device import Device
from ..gpusim.specs import DeviceSpec
from ..gpusim.timing import throughput_per_minute
from .config import TierConfig
from .pager import H2D_LABEL, PAGER_POOL

__all__ = ["experiment_memory_tiering"]


def experiment_memory_tiering(
    dataset_name: str = "tloc",
    cap_fractions: Sequence[float] = (1.0, 0.5, 0.25, 0.1),
    num_queries: int = 64,
    k: int = 10,
    node_capacity: int = 20,
    scale: float = 1.0,
    cardinality: Optional[int] = None,
    seed: int = 7,
) -> ExperimentResult:
    """Sweep device-memory caps; verify exactness.

    Every tiered row is checked against the fully-resident reference
    (``correct`` column).
    """
    if cardinality is None:
        cardinality = max(256, int(DEFAULT_CARDINALITIES[dataset_name] * scale))
    dataset = get_dataset(dataset_name, cardinality=cardinality, seed=seed)
    workload = make_workload(dataset, num_queries=num_queries, k=k, seed=seed)
    dataset_bytes = max(1, objects_nbytes(dataset.objects))
    # a handful of objects per block, so even the tightest cap holds several
    per_object = max(1, dataset_bytes // max(1, len(dataset.objects)))
    block_bytes = max(64, per_object * max(2, node_capacity // 4))

    result = ExperimentResult(
        experiment="memory-tiering",
        title=f"Out-of-core GTS on {dataset.name} "
        f"({cardinality} objects, {dataset_bytes} payload bytes, "
        f"{num_queries} queries)",
    )

    # --- fully-resident reference: exactness oracle and slowdown baseline
    reference = GTS.build(
        dataset.objects,
        dataset.metric,
        node_capacity=node_capacity,
        device=Device(DeviceSpec()),
        seed=seed,
    )
    ref_before = reference.device.snapshot()
    ref_range, ref_mrq_time, ref_knn, ref_knn_time = workload.measure(reference)
    ref_delta = reference.device.stats.delta_since(ref_before)
    ref_pools = dict(reference.device.stats.pool_peak_bytes)
    reference.close()
    result.add_row(
        tiered=False,
        cap_fraction=1.0,
        budget_bytes=dataset_bytes,
        mrq_throughput=throughput_per_minute(num_queries, ref_mrq_time),
        mknn_throughput=throughput_per_minute(num_queries, ref_knn_time),
        knn_slowdown=1.0,
        hit_rate=1.0,
        misses=0,
        evictions=0,
        h2d_transactions=0,
        h2d_seconds=0.0,
        d2h_seconds=ref_delta.transfer_seconds.get("results-d2h", 0.0),
        tree_peak_bytes=ref_pools.get("tree", 0),
        pager_peak_bytes=0,
        correct=True,
        status="ok",
    )

    for frac in map(float, cap_fractions):
        budget = max(block_bytes, int(dataset_bytes * frac))
        tier = TierConfig(memory_budget_bytes=budget, block_bytes=block_bytes)
        index = GTS.build(
            dataset.objects,
            dataset.metric,
            node_capacity=node_capacity,
            device=Device(DeviceSpec()),
            seed=seed,
            tier=tier,
        )
        # measure steady-state query traffic, not the build's streaming pass
        query_before = index.device.snapshot()
        index.pager.stats.reset()
        range_answers, mrq_time, knn_answers, knn_time = workload.measure(index)
        delta = index.device.stats.delta_since(query_before)
        pager = index.pager.stats
        correct = range_answers == ref_range and knn_answers == ref_knn
        result.add_row(
            tiered=True,
            cap_fraction=frac,
            budget_bytes=budget,
            mrq_throughput=throughput_per_minute(num_queries, mrq_time),
            mknn_throughput=throughput_per_minute(num_queries, knn_time),
            knn_slowdown=knn_time / ref_knn_time if ref_knn_time > 0 else float("inf"),
            hit_rate=pager.hit_rate,
            misses=pager.misses,
            evictions=pager.evictions,
            h2d_transactions=pager.transactions,
            h2d_seconds=delta.transfer_seconds.get(H2D_LABEL, 0.0),
            d2h_seconds=delta.transfer_seconds.get("results-d2h", 0.0),
            tree_peak_bytes=index.device.stats.pool_peak_bytes.get("tree", 0),
            pager_peak_bytes=index.device.stats.pool_peak_bytes.get(PAGER_POOL, 0),
            correct=correct,
            status="ok" if correct else "mismatch",
        )
        index.close()

    result.notes = (
        "every tiered row's answers are verified against the fully-resident "
        "reference; h2d/d2h seconds come from ExecutionStats.transfer_seconds "
        "(pager traffic / result gathering), tree/pager peaks from the "
        "per-pool high-water marks"
    )
    return result
