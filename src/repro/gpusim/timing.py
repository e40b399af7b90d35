"""Timing helpers shared by the evaluation harness.

The paper reports *throughput* (queries per minute) for the search
experiments and seconds for construction and updates.  These helpers convert
between simulated seconds and those units, and provide a small scoped timer
for measuring deltas of device activity.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator

from .device import Device
from .stats import ExecutionStats

__all__ = ["throughput_per_minute", "MeasuredRun", "measure", "PhaseTimer"]


def throughput_per_minute(num_queries: int, elapsed_seconds: float) -> float:
    """Convert a batch of ``num_queries`` answered in ``elapsed_seconds`` to q/min."""
    if num_queries <= 0:
        return 0.0
    if elapsed_seconds <= 0:
        return float("inf")
    return 60.0 * num_queries / elapsed_seconds


@dataclass
class MeasuredRun:
    """Result of a :func:`measure` block: the stats delta plus derived values."""

    stats: ExecutionStats
    num_queries: int = 0

    @property
    def sim_time(self) -> float:
        return self.stats.sim_time

    @property
    def throughput(self) -> float:
        return throughput_per_minute(self.num_queries, self.stats.sim_time)


@contextmanager
def measure(device: Device, num_queries: int = 0) -> Iterator[MeasuredRun]:
    """Measure the device activity of a ``with`` block.

    >>> run = None
    >>> with measure(device, num_queries=len(queries)) as run:   # doctest: +SKIP
    ...     index.range_query(queries)
    >>> run.throughput                                           # doctest: +SKIP
    """
    before = device.snapshot()
    run = MeasuredRun(stats=ExecutionStats(), num_queries=num_queries)
    try:
        yield run
    finally:
        run.stats = device.stats.delta_since(before)


class PhaseTimer:
    """Attribute device activity to named phases of a larger operation.

    The serving layer needs to split the cost of one micro-batch into
    *dispatch* (batch assembly, host→device staging) and *kernel* (the actual
    query descent) so each request's latency can be decomposed.  A
    ``PhaseTimer`` measures a sequence of named ``with`` blocks against one
    device and accumulates a stats delta per phase::

        timer = PhaseTimer(device)
        with timer.phase("dispatch"):
            ...  # stage the batch
        with timer.phase("kernel"):
            ...  # run the queries
        timer.sim_time("kernel")        # simulated seconds of that phase
        timer.stats["dispatch"]         # full ExecutionStats delta

    Re-entering a phase name accumulates into the same bucket.
    """

    def __init__(self, device: Device):
        self._device = device
        self.stats: Dict[str, ExecutionStats] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Measure one ``with`` block and accumulate it under ``name``."""
        before = self._device.snapshot()
        try:
            yield
        finally:
            delta = self._device.stats.delta_since(before)
            if name in self.stats:
                self.stats[name] = self.stats[name].merge(delta)
            else:
                self.stats[name] = delta

    def sim_time(self, name: str) -> float:
        """Simulated seconds accumulated under ``name`` (0.0 when unused)."""
        entry = self.stats.get(name)
        return entry.sim_time if entry is not None else 0.0

    @property
    def total_sim_time(self) -> float:
        """Simulated seconds across every recorded phase."""
        return sum(entry.sim_time for entry in self.stats.values())
