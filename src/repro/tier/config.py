"""Configuration of the tiered host↔device memory subsystem.

A :class:`TierConfig` is the single knob bundle that turns a fully-resident
GTS index into an out-of-core one: the object store stays in (simulated)
host memory, partitioned into fixed-size blocks, and a bounded device-memory
pool stages blocks on demand (see DESIGN.md §7).  The config round-trips
through :meth:`as_dict` / :meth:`from_dict` so persisted indexes remember
how they were tiered.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
        one block.
    block_bytes:
        Target size of one host-memory object block.
    eviction:
        Eviction policy name: ``"lru"``, ``"clock"`` or ``"pinned-lru"``
        (the pin-aware policy that refuses to evict blocks holding the
        tree's pivot objects while any other victim exists).
    prefetch:
        When True, the query engine's first-stage candidate lists drive a
        lookahead prefetch: the blocks a leaf-verification (or pivot) pass
        will touch are staged in one transaction before the kernel's
        gather runs.  Demand faults already share one transaction per
        co-resident wave of a gather, so this only hoists the staging
        ahead of the gather; it saves no latency charges on its own.
    fault_latency:
        Simulated seconds of fixed cost per H2D transaction: one demand-
        fault wave (every missed block of one gather that is resident
        together) or one prefetch.
    """

    memory_budget_bytes: int
    block_bytes: int = DEFAULT_BLOCK_BYTES
    eviction: str = "lru"
    prefetch: bool = False
    fault_latency: float = DEFAULT_FAULT_LATENCY

    def __post_init__(self) -> None:
        if self.memory_budget_bytes <= 0:
            raise TierError(
                f"tier memory budget must be positive, got {self.memory_budget_bytes}"
            )
        if self.block_bytes <= 0:
            raise TierError(f"tier block size must be positive, got {self.block_bytes}")
        if self.memory_budget_bytes < self.block_bytes:
            raise TierError(
                f"tier memory budget ({self.memory_budget_bytes} B) must hold at "
                f"least one block ({self.block_bytes} B)"
            )
        if self.fault_latency < 0:
            raise TierError(f"fault latency must be non-negative, got {self.fault_latency}")

    def with_budget(self, memory_budget_bytes: int) -> "TierConfig":
        """Return a copy with a different device-pool budget."""
        return replace(self, memory_budget_bytes=int(memory_budget_bytes))

    def as_dict(self) -> dict:
        """Plain-dict form (persisted inside index archives)."""
        return {
            "memory_budget_bytes": int(self.memory_budget_bytes),
            "block_bytes": int(self.block_bytes),
            "eviction": self.eviction,
            "prefetch": bool(self.prefetch),
            "fault_latency": float(self.fault_latency),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TierConfig":
        """Rebuild a config from :meth:`as_dict` output."""
        return cls(
            memory_budget_bytes=int(data["memory_budget_bytes"]),
            block_bytes=int(data.get("block_bytes", DEFAULT_BLOCK_BYTES)),
            eviction=str(data.get("eviction", "lru")),
            prefetch=bool(data.get("prefetch", False)),
            fault_latency=float(data.get("fault_latency", DEFAULT_FAULT_LATENCY)),
        )
