"""Experiment runner: build indexes, execute query batches, collect metrics.

The runner is the glue between the method registry (:mod:`repro.baselines`),
the dataset generators and the reporting layer.  Every operation produces a
:class:`MethodResult` carrying

* the *simulated* time (and queries/minute throughput) of the operation,
* the number of distance computations it needed,
* storage, peak device memory, recall (for approximate methods),
* a status of ``ok`` / ``oom`` / ``unsupported`` so that figures can show the
  same missing bars as the paper (e.g. EGNAT on T-Loc in Table 4, GPU-Tree at
  512 queries in Fig. 9).

Wall-clock time is irrelevant here — the simulated device clock is the
experiment's unit of account — so the runner is deliberately simple and
sequential.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..baselines import METHOD_REGISTRY, SimilarityIndex
from ..exceptions import (
    BaselineError,
    DeviceMemoryError,
    HostMemoryError,
    MemoryDeadlockError,
    UnsupportedMetricError,
)
from ..gpusim.device import Device
from ..gpusim.specs import CPUSpec, DeviceSpec
from ..gpusim.timing import throughput_per_minute

__all__ = ["MethodResult", "MethodRunner", "STATUS_OK", "STATUS_OOM", "STATUS_UNSUPPORTED"]

STATUS_OK = "ok"
STATUS_OOM = "oom"
STATUS_UNSUPPORTED = "unsupported"


@dataclass
class MethodResult:
    """Outcome of one (method, dataset, operation) measurement."""

    method: str
    dataset: str
    operation: str
    status: str = STATUS_OK
    sim_time: float = 0.0
    wall_time: float = 0.0
    throughput: float = 0.0
    storage_bytes: int = 0
    peak_memory_bytes: int = 0
    distance_computations: int = 0
    num_queries: int = 0
    recall: Optional[float] = None
    params: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status != STATUS_OK

    def as_dict(self) -> dict:
        data = {
            "method": self.method,
            "dataset": self.dataset,
            "operation": self.operation,
            "status": self.status,
            "sim_time": self.sim_time,
            "wall_time": self.wall_time,
            "throughput": self.throughput,
            "storage_bytes": self.storage_bytes,
            "peak_memory_bytes": self.peak_memory_bytes,
            "distance_computations": self.distance_computations,
            "num_queries": self.num_queries,
            "recall": self.recall,
        }
        data.update(self.params)
        return data


class MethodRunner:
    """Builds one method over one dataset and measures its operations."""

    def __init__(
        self,
        method_name: str,
        dataset,
        device_spec: Optional[DeviceSpec] = None,
        cpu_spec: Optional[CPUSpec] = None,
        method_kwargs: Optional[dict] = None,
    ):
        if method_name not in METHOD_REGISTRY:
            raise BaselineError(f"unknown method {method_name!r}")
        self.method_name = method_name
        self.dataset = dataset
        self.device_spec = device_spec or DeviceSpec()
        self.cpu_spec = cpu_spec or CPUSpec()
        self.method_kwargs = dict(method_kwargs or {})
        self.index: Optional[SimilarityIndex] = None

    # ------------------------------------------------------------- plumbing
    def _instantiate(self) -> SimilarityIndex:
        factory = METHOD_REGISTRY[self.method_name]
        kwargs = dict(self.method_kwargs)
        if getattr(factory, "is_gpu", False):
            kwargs.setdefault("device", Device(self.device_spec))
        else:
            kwargs.setdefault("cpu_spec", self.cpu_spec)
        return factory(self.dataset.metric, **kwargs)

    def _result(self, operation: str, **kwargs) -> MethodResult:
        return MethodResult(
            method=self.method_name,
            dataset=self.dataset.name,
            operation=operation,
            **kwargs,
        )

    def _snapshot(self):
        stats = self.index.sim_stats
        return stats.copy()

    def _measure(self, operation: str, num_queries: int, fn, params: Optional[dict] = None) -> MethodResult:
        """Run ``fn`` and convert the stats delta into a MethodResult."""
        before = self._snapshot()
        pairs_before = self.dataset.metric.pair_count
        wall_start = time.perf_counter()
        try:
            payload = fn()
            status = STATUS_OK
        except (MemoryDeadlockError, DeviceMemoryError, HostMemoryError):
            payload = None
            status = STATUS_OOM
        except (UnsupportedMetricError, BaselineError):
            payload = None
            status = STATUS_UNSUPPORTED
        wall = time.perf_counter() - wall_start
        after = self._snapshot()
        delta = after.delta_since(before)
        result = self._result(
            operation,
            status=status,
            sim_time=delta.sim_time,
            wall_time=wall,
            throughput=throughput_per_minute(num_queries, delta.sim_time) if num_queries else 0.0,
            storage_bytes=self.index.storage_bytes if status == STATUS_OK else 0,
            peak_memory_bytes=after.peak_memory_bytes,
            distance_computations=self.dataset.metric.pair_count - pairs_before,
            num_queries=num_queries,
            params=dict(params or {}),
        )
        result.params["payload"] = payload
        return result

    # ------------------------------------------------------------ operations
    def build(self) -> MethodResult:
        """Instantiate and build the index, measuring construction cost."""
        factory = METHOD_REGISTRY[self.method_name]
        probe_kwargs = dict(self.method_kwargs)
        wall_start = time.perf_counter()
        pairs_before = self.dataset.metric.pair_count
        try:
            self.index = self._instantiate()
            if not type(self.index).supports_metric(self.dataset.metric):
                raise UnsupportedMetricError(
                    f"{self.method_name} does not support {self.dataset.metric.name}"
                )
            self.index.build(self.dataset.objects)
            status = STATUS_OK
        except (MemoryDeadlockError, DeviceMemoryError, HostMemoryError):
            status = STATUS_OOM
        except UnsupportedMetricError:
            status = STATUS_UNSUPPORTED
        wall = time.perf_counter() - wall_start
        if status != STATUS_OK:
            return self._result("build", status=status, wall_time=wall)
        stats = self.index.sim_stats
        return self._result(
            "build",
            status=STATUS_OK,
            sim_time=stats.sim_time,
            wall_time=wall,
            storage_bytes=self.index.storage_bytes,
            peak_memory_bytes=stats.peak_memory_bytes,
            distance_computations=self.dataset.metric.pair_count - pairs_before,
            params=dict(probe_kwargs),
        )

    def run_mrq(self, queries: Sequence, radius, params: Optional[dict] = None) -> MethodResult:
        """Measure one batch of metric range queries."""
        self._require_index()
        if not self.index.supports_range:
            return self._result("mrq", status=STATUS_UNSUPPORTED, num_queries=len(queries))
        return self._measure(
            "mrq",
            len(queries),
            lambda: self.index.range_query_batch(queries, radius),
            params={**(params or {}), "radius": float(np.mean(radius))},
        )

    def run_knn(
        self,
        queries: Sequence,
        k: int,
        ground_truth: Optional[list] = None,
        params: Optional[dict] = None,
    ) -> MethodResult:
        """Measure one batch of metric kNN queries (recall vs. ground truth)."""
        self._require_index()
        result = self._measure(
            "mknn",
            len(queries),
            lambda: self.index.knn_query_batch(queries, k),
            params={**(params or {}), "k": int(k)},
        )
        payload = result.params.get("payload")
        if ground_truth is not None and payload is not None:
            result.recall = compute_recall(payload, ground_truth)
        return result

    def run_stream_updates(self, num_updates: int, rng_seed: int = 71) -> MethodResult:
        """Measure streaming updates: remove one object, re-insert it, repeat."""
        self._require_index()
        rng = np.random.default_rng(rng_seed)

        def _do() -> None:
            for _ in range(num_updates):
                live = self.index.live_ids()
                victim = int(live[rng.integers(0, len(live))])
                obj = self.index._objects[victim]
                self.index.delete(victim)
                self.index.insert(obj)

        result = self._measure("stream-update", 0, _do, params={"num_updates": num_updates})
        if result.status == STATUS_OK and num_updates:
            result.throughput = num_updates / result.sim_time if result.sim_time > 0 else float("inf")
            result.params["time_per_update"] = result.sim_time / num_updates
        return result

    def run_batch_update(self, fraction: float = 0.1, rng_seed: int = 73) -> MethodResult:
        """Measure a bulk update: remove ``fraction`` of the objects, re-insert them."""
        self._require_index()
        rng = np.random.default_rng(rng_seed)
        live = self.index.live_ids()
        count = max(1, int(len(live) * fraction))
        victims = rng.choice(live, size=count, replace=False)
        objects = [self.index._objects[int(v)] for v in victims]

        def _do() -> None:
            self.index.batch_update(inserts=objects, deletes=[int(v) for v in victims])

        result = self._measure("batch-update", 0, _do, params={"fraction": fraction, "count": count})
        if result.status == STATUS_OK and count:
            result.params["time_per_update"] = result.sim_time / count
        return result

    def _require_index(self) -> None:
        if self.index is None:
            raise BaselineError("call build() before running queries")


def compute_recall(answers: list, ground_truth: list) -> float:
    """Mean fraction of true kNN ids recovered per query (ties by id ignored)."""
    if not ground_truth:
        return 1.0
    scores = []
    for got, truth in zip(answers, ground_truth):
        truth_ids = {int(i) for i, _ in truth}
        if not truth_ids:
            scores.append(1.0)
            continue
        got_ids = {int(i) for i, _ in got}
        scores.append(len(got_ids & truth_ids) / len(truth_ids))
    return float(np.mean(scores))
