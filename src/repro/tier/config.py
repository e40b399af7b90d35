"""Configuration of the tiered host↔device memory subsystem.

A :class:`TierConfig` is the single knob bundle that turns a fully-resident
GTS index into an out-of-core one: the object store stays in (simulated)
host memory, partitioned into fixed-size blocks, and a bounded device-memory
pool stages blocks on demand, while the live tree's pivot rows stay staged
outside the pool (see DESIGN.md §7).  The config round-trips
through :meth:`as_dict` / :meth:`from_dict` so persisted indexes remember
how they were tiered.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ..exceptions import TierError

__all__ = ["TierConfig", "DEFAULT_BLOCK_BYTES", "DEFAULT_FAULT_LATENCY"]

#: Default object-block size.  Small enough that the stand-in datasets span
#: dozens of blocks, large enough that per-block transfer latency amortises.
DEFAULT_BLOCK_BYTES = 16 * 1024

#: Fixed per-transaction cost in simulated seconds (PCIe round-trip plus
#: driver overhead).  This is what makes hit rates — and charging a
#: gather's misses in coalesced waves — matter beyond raw bytes/bandwidth.
DEFAULT_FAULT_LATENCY = 15e-6


@dataclass(frozen=True)
class TierConfig:
    """How a tiered index splits and pages its object store.

    Parameters
    ----------
    memory_budget_bytes:
        Byte budget of the device-resident block pool.  Must fit at least
        one block.  The pinned pivot rows of the live tree (the store's
        pinned prefix, DESIGN.md §7) live outside it, in the ``"tree"``
        pool beside the node and table lists.
    block_bytes:
        Target size of one host-memory object block.
    fault_latency:
        Simulated seconds of fixed cost per H2D transaction: one demand-
        fault wave (every missed block of one gather that is resident
        together).
    """

    memory_budget_bytes: int
    block_bytes: int = DEFAULT_BLOCK_BYTES
    fault_latency: float = DEFAULT_FAULT_LATENCY

    def __post_init__(self) -> None:
        for name, label in (("memory_budget_bytes", "memory budget"), ("block_bytes", "block size")):
            value = getattr(self, name)
            if not _is_positive_integral(value):
                raise TierError(
                    f"tier {label} must be a positive whole number of bytes, got {value!r}"
                )
            object.__setattr__(self, name, int(value))
        if self.memory_budget_bytes < self.block_bytes:
            raise TierError(
                f"tier memory budget ({self.memory_budget_bytes} B) must hold at "
                f"least one block ({self.block_bytes} B)"
            )
        if not (math.isfinite(self.fault_latency) and self.fault_latency >= 0):
            raise TierError(
                f"fault latency must be finite and non-negative, got {self.fault_latency!r}"
            )

    def as_dict(self) -> dict:
        """Plain-dict form (persisted inside index archives)."""
        return {
            "memory_budget_bytes": self.memory_budget_bytes,
            "block_bytes": self.block_bytes,
            "fault_latency": float(self.fault_latency),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TierConfig":
        """Rebuild a config from :meth:`as_dict` output.

        Unknown keys are ignored, so archives that recorded since-removed
        knobs (an eviction policy name, a prefetch flag) still load.
        """
        return cls(
            memory_budget_bytes=int(data["memory_budget_bytes"]),
            block_bytes=int(data.get("block_bytes", DEFAULT_BLOCK_BYTES)),
            fault_latency=float(data.get("fault_latency", DEFAULT_FAULT_LATENCY)),
        )


def _is_positive_integral(value) -> bool:
    """True for a finite, positive, whole number (an int or an integral float)."""
    return (
        isinstance(value, numbers.Real)
        and math.isfinite(value)
        and value > 0
        and value == int(value)
    )
