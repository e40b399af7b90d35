"""Hardware specifications for the simulated execution substrates.

The reproduction replaces the paper's physical GPU (an NVIDIA RTX 2080 Ti with
4352 CUDA cores and 11 GB of device memory) with an execution-*model*
simulator.  A :class:`DeviceSpec` captures the handful of parameters that the
model needs:

* ``cores`` — the concurrent computing power ``C`` of the paper's cost model;
* ``memory_bytes`` — device memory capacity, which drives the two-stage query
  grouping and the out-of-memory behaviour of the baselines;
* ``op_time`` — simulated seconds per abstract operation on one core;
* ``kernel_launch_overhead`` — fixed cost per kernel launch (the reason
  level-synchronous algorithms want few, large launches);
* ``transfer_bandwidth`` — host↔device copy bandwidth in bytes/second.

A :class:`CPUSpec` models the CPU baselines with the same vocabulary so that
all methods report comparable simulated times.  Absolute values are loosely
calibrated to the paper's hardware but only *relative* results are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DeviceSpec", "CPUSpec", "RTX_2080TI_LIKE", "DESKTOP_CPU_LIKE"]

GiB = 1024 ** 3
MiB = 1024 ** 2
KiB = 1024


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated GPU."""

    name: str = "sim-gpu"
    cores: int = 4096
    memory_bytes: int = 11 * GiB
    op_time: float = 2.0e-9
    kernel_launch_overhead: float = 2.0e-7
    transfer_bandwidth: float = 12.0e9
    shared_memory_bytes: int = 48 * KiB
    warp_size: int = 32
    max_threads_per_block: int = 1024

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.op_time <= 0 or self.transfer_bandwidth <= 0:
            raise ValueError("op_time and transfer_bandwidth must be positive")

    def with_memory(self, memory_bytes: int) -> "DeviceSpec":
        """Return a copy of this spec with a different memory capacity."""
        return replace(self, memory_bytes=int(memory_bytes))

    def with_cores(self, cores: int) -> "DeviceSpec":
        """Return a copy of this spec with a different core count."""
        return replace(self, cores=int(cores))


@dataclass(frozen=True)
class CPUSpec:
    """Static description of a simulated CPU used by the CPU baselines."""

    name: str = "sim-cpu"
    cores: int = 1
    op_time: float = 1.0e-9
    memory_bytes: int = 128 * GiB

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.op_time <= 0:
            raise ValueError("op_time must be positive")


#: Spec loosely resembling the paper's Nvidia GeForce RTX 2080 Ti (11 GB).
RTX_2080TI_LIKE = DeviceSpec(name="rtx-2080ti-like", cores=4352, memory_bytes=11 * GiB)

#: Spec loosely resembling the paper's Intel Core i9-10900X host.
DESKTOP_CPU_LIKE = CPUSpec(name="i9-10900x-like", cores=1, op_time=1.0e-9)
