"""Execution statistics collected by the simulated device.

Every kernel launch, sort, transfer and allocation on a
:class:`~repro.gpusim.device.Device` updates an :class:`ExecutionStats`
instance.  The evaluation harness converts the accumulated ``sim_time`` into
the throughput numbers (queries/min) that the paper's figures report, and the
tests assert on the structural counters (kernel launches, parallel steps,
distance-op counts) to verify that the algorithms behave as described.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["ExecutionStats"]


def _merge_max(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    out = dict(a)
    for key, value in b.items():
        out[key] = max(out.get(key, 0), value)
    return out


def _merge_sum(a: Dict[str, float], b: Dict[str, float]) -> Dict[str, float]:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0.0) + value
    return out


@dataclass
class ExecutionStats:
    """Mutable accumulator of simulated execution activity."""

    kernel_launches: int = 0
    parallel_steps: int = 0
    total_ops: float = 0.0
    sorted_elements: int = 0
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    allocations: int = 0
    frees: int = 0
    peak_memory_bytes: int = 0
    sim_time: float = 0.0
    #: wall-clock seconds spent inside simulated kernels (host-side NumPy work)
    host_time: float = 0.0
    #: per-pool high-water marks of allocated bytes (e.g. "tree" vs "pager");
    #: ``peak_memory_bytes`` remains the device-wide mark across all pools
    pool_peak_bytes: Dict[str, int] = field(default_factory=dict)
    #: simulated transfer seconds attributed to named flows (e.g. "pager-h2d",
    #: "results-d2h"); a subset of ``sim_time``
    transfer_seconds: Dict[str, float] = field(default_factory=dict)
    #: simulated seconds spent inside incremental-maintenance slices
    #: (generation-swap rebuild work, DESIGN.md §9); a subset of ``sim_time``
    maintenance_seconds: float = 0.0

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Return a new stats object that is the element-wise sum of both."""
        return ExecutionStats(
            kernel_launches=self.kernel_launches + other.kernel_launches,
            parallel_steps=self.parallel_steps + other.parallel_steps,
            total_ops=self.total_ops + other.total_ops,
            sorted_elements=self.sorted_elements + other.sorted_elements,
            bytes_to_device=self.bytes_to_device + other.bytes_to_device,
            bytes_to_host=self.bytes_to_host + other.bytes_to_host,
            allocations=self.allocations + other.allocations,
            frees=self.frees + other.frees,
            peak_memory_bytes=max(self.peak_memory_bytes, other.peak_memory_bytes),
            sim_time=self.sim_time + other.sim_time,
            host_time=self.host_time + other.host_time,
            pool_peak_bytes=_merge_max(self.pool_peak_bytes, other.pool_peak_bytes),
            transfer_seconds=_merge_sum(self.transfer_seconds, other.transfer_seconds),
            maintenance_seconds=self.maintenance_seconds + other.maintenance_seconds,
        )

    def delta_since(self, earlier: "ExecutionStats") -> "ExecutionStats":
        """Return the activity that happened after ``earlier`` was snapshotted."""
        return ExecutionStats(
            kernel_launches=self.kernel_launches - earlier.kernel_launches,
            parallel_steps=self.parallel_steps - earlier.parallel_steps,
            total_ops=self.total_ops - earlier.total_ops,
            sorted_elements=self.sorted_elements - earlier.sorted_elements,
            bytes_to_device=self.bytes_to_device - earlier.bytes_to_device,
            bytes_to_host=self.bytes_to_host - earlier.bytes_to_host,
            allocations=self.allocations - earlier.allocations,
            frees=self.frees - earlier.frees,
            peak_memory_bytes=self.peak_memory_bytes,
            sim_time=self.sim_time - earlier.sim_time,
            host_time=self.host_time - earlier.host_time,
            pool_peak_bytes=dict(self.pool_peak_bytes),
            transfer_seconds={
                key: value - earlier.transfer_seconds.get(key, 0.0)
                for key, value in self.transfer_seconds.items()
            },
            maintenance_seconds=self.maintenance_seconds - earlier.maintenance_seconds,
        )

    def copy(self) -> "ExecutionStats":
        """Return an independent snapshot of the current counters."""
        return ExecutionStats(**self.as_dict())

    def scale(self, factor: float) -> "ExecutionStats":
        """Return a copy with every additive counter multiplied by ``factor``.

        Used to attribute the cost of a shared micro-batch to its individual
        requests: a batch of ``n`` requests whose dispatch cost ``stats``
        charges each request ``stats.scale(1 / n)``.  Scaled counters are
        left as floats (fractional kernel launches, bytes, ...) so that
        summing the per-request shares reproduces the batch totals exactly;
        ``peak_memory_bytes`` is a high-water mark, not an additive quantity,
        so it is carried over unscaled.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return ExecutionStats(
            kernel_launches=self.kernel_launches * factor,
            parallel_steps=self.parallel_steps * factor,
            total_ops=self.total_ops * factor,
            sorted_elements=self.sorted_elements * factor,
            bytes_to_device=self.bytes_to_device * factor,
            bytes_to_host=self.bytes_to_host * factor,
            allocations=self.allocations * factor,
            frees=self.frees * factor,
            peak_memory_bytes=self.peak_memory_bytes,
            sim_time=self.sim_time * factor,
            host_time=self.host_time * factor,
            pool_peak_bytes=dict(self.pool_peak_bytes),
            transfer_seconds={k: v * factor for k, v in self.transfer_seconds.items()},
            maintenance_seconds=self.maintenance_seconds * factor,
        )

    def as_dict(self) -> dict:
        """Return the counters as a plain dictionary (for reports/JSON)."""
        return {
            "kernel_launches": self.kernel_launches,
            "parallel_steps": self.parallel_steps,
            "total_ops": self.total_ops,
            "sorted_elements": self.sorted_elements,
            "bytes_to_device": self.bytes_to_device,
            "bytes_to_host": self.bytes_to_host,
            "allocations": self.allocations,
            "frees": self.frees,
            "peak_memory_bytes": self.peak_memory_bytes,
            "sim_time": self.sim_time,
            "host_time": self.host_time,
            "pool_peak_bytes": dict(self.pool_peak_bytes),
            "transfer_seconds": dict(self.transfer_seconds),
            "maintenance_seconds": self.maintenance_seconds,
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.kernel_launches = 0
        self.parallel_steps = 0
        self.total_ops = 0.0
        self.sorted_elements = 0
        self.bytes_to_device = 0
        self.bytes_to_host = 0
        self.allocations = 0
        self.frees = 0
        self.peak_memory_bytes = 0
        self.sim_time = 0.0
        self.host_time = 0.0
        self.pool_peak_bytes = {}
        self.transfer_seconds = {}
        self.maintenance_seconds = 0.0
