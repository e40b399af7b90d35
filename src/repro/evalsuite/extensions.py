"""Experiments that go beyond the paper's own tables and figures.

Two additions round out the evaluation:

* :func:`experiment_extended_baselines` widens the CPU comparison to the
  related-work methods of Section 2 (LAESA, List of Clusters, EPT, M-tree,
  GNAT) that the paper surveys but does not measure, confirming that GTS's
  advantage is not an artefact of the particular CPU competitors chosen;
* :func:`experiment_approximate_tradeoff` measures the recall / cost
  trade-off of the approximate extensions (:mod:`repro.approx`), the paper's
  stated future-work direction: beam-search descent at several widths and
  the learned leaf router at several leaf budgets, all against the exact GTS
  answers.

Both return the same :class:`~repro.evalsuite.reporting.ExperimentResult`
structure as the paper experiments, so the benchmark harness and the CLI
treat them identically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..approx import ApproximateGTS, LearnedLeafRouter, mean_knn_recall
from ..core.gts import GTS
from ..datasets import get_dataset
from ..gpusim.specs import DeviceSpec, MiB
from ..gpusim.timing import throughput_per_minute
from .experiments import _scaled_cardinality
from .reporting import ExperimentResult
from .runner import STATUS_OK, MethodRunner
from .workloads import make_workload

__all__ = ["experiment_extended_baselines", "experiment_approximate_tradeoff"]

#: CPU methods of the extended comparison, in presentation order.
EXTENDED_CPU_METHODS = ("BST", "MVPT", "EGNAT", "LAESA", "LC", "EPT", "M-tree", "GNAT")


def experiment_extended_baselines(
    datasets: Sequence[str] = ("tloc", "words"),
    methods: Sequence[str] = EXTENDED_CPU_METHODS + ("GTS",),
    k: int = 8,
    num_queries: int = 32,
    radius_step: int = 8,
    scale: float = 1.0,
    cardinalities: Optional[dict] = None,
    device_spec: Optional[DeviceSpec] = None,
    seed: int = 21,
) -> ExperimentResult:
    """Compare GTS with the full related-work CPU index family.

    Reports, per (dataset, method): construction time, index storage, MRQ and
    MkNNQ throughput and the number of distance computations per kNN batch.
    The expected shape mirrors the paper's Table 4 / Fig. 7 findings: the CPU
    indexes differ among themselves by small factors, while GTS's batched
    GPU execution wins by orders of magnitude.
    """
    result = ExperimentResult(
        experiment="extended-baselines",
        title="GTS vs the related-work CPU metric indexes (Section 2)",
    )
    for ds_name in datasets:
        dataset = get_dataset(ds_name, _scaled_cardinality(ds_name, scale, cardinalities), seed=seed)
        workload = make_workload(
            dataset, num_queries=num_queries, radius_step=radius_step, k=k, seed=seed
        )
        for method in methods:
            runner = MethodRunner(method, dataset, device_spec=device_spec)
            build = runner.build()
            if build.failed:
                result.add_row(dataset=ds_name, method=method, status=build.status)
                continue
            mrq = runner.run_mrq(workload.queries, workload.radius)
            knn = runner.run_knn(workload.queries, workload.k)
            result.add_row(
                dataset=ds_name,
                method=method,
                status=knn.status,
                build_time_s=build.sim_time,
                storage_mb=knn.storage_bytes / MiB,
                mrq_throughput=mrq.throughput,
                mknn_throughput=knn.throughput,
                mknn_distances=knn.distance_computations,
            )
    return result


def experiment_approximate_tradeoff(
    dataset_name: str = "color",
    beam_widths: Sequence[int] = (1, 2, 4, 8, 16),
    leaf_budgets: Sequence[int] = (1, 2, 4, 8),
    k: int = 8,
    num_queries: int = 32,
    num_training_queries: int = 32,
    node_capacity: int = 20,
    scale: float = 1.0,
    cardinality: Optional[int] = None,
    seed: int = 22,
) -> ExperimentResult:
    """Recall / cost trade-off of the approximate search extensions.

    One exact GTS index is built; the same query batch is answered exactly
    (the reference), by :class:`ApproximateGTS` at every ``beam_width`` and
    by :class:`LearnedLeafRouter` at every ``leaf_budget``.  Every row
    records the recall against the exact answers, the simulated device time,
    the distance computations and the throughput, so the expected shape is a
    monotone recall-vs-cost frontier approaching recall 1 as the budget
    grows.
    """
    result = ExperimentResult(
        experiment="approx-tradeoff",
        title="Approximate GTS: recall vs cost (beam search and learned router)",
    )
    card = cardinality or _scaled_cardinality(dataset_name, scale, None)
    dataset = get_dataset(dataset_name, card, seed=seed)
    workload = make_workload(dataset, num_queries=num_queries, k=k, seed=seed)
    index = GTS.build(dataset.objects, dataset.metric, node_capacity=node_capacity, seed=seed)

    def measure(label: str, parameter, answer_fn) -> tuple:
        dataset.metric.reset_counter()
        time_before = index.device.stats.sim_time
        answers = answer_fn()
        sim_time = index.device.stats.sim_time - time_before
        distances = dataset.metric.pair_count
        return answers, sim_time, distances

    exact_answers, exact_time, exact_distances = measure(
        "exact", None, lambda: index.knn_query_batch(workload.queries, workload.k)
    )
    result.add_row(
        strategy="exact",
        parameter=0,
        status=STATUS_OK,
        recall=1.0,
        sim_time_s=exact_time,
        throughput=throughput_per_minute(num_queries, exact_time),
        distances=exact_distances,
    )

    for width in beam_widths:
        approx = ApproximateGTS(index, beam_width=int(width))
        answers, sim_time, distances = measure(
            "beam", width, lambda: approx.knn_query_batch(workload.queries, workload.k)
        )
        result.add_row(
            strategy="beam",
            parameter=int(width),
            status=STATUS_OK,
            recall=mean_knn_recall(answers, exact_answers),
            sim_time_s=sim_time,
            throughput=throughput_per_minute(num_queries, sim_time),
            distances=distances,
        )

    training = dataset.sample_queries(num_training_queries, seed=seed + 1)
    for budget in leaf_budgets:
        router = LearnedLeafRouter(
            index, leaf_budget=int(budget), training_queries=training, seed=seed
        )
        answers, sim_time, distances = measure(
            "learned", budget, lambda: router.knn_query_batch(workload.queries, workload.k)
        )
        result.add_row(
            strategy="learned",
            parameter=int(budget),
            status=STATUS_OK,
            recall=mean_knn_recall(answers, exact_answers),
            sim_time_s=sim_time,
            throughput=throughput_per_minute(num_queries, sim_time),
            distances=distances,
        )
    return result
