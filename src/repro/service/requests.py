"""Request/response model of the query-serving layer.

A request is one operation submitted by one (simulated) client: a metric
range query, a metric kNN query, or a streaming insert/delete.  Requests
carry open-loop arrival timestamps in *simulated seconds* — the same clock
the :mod:`repro.gpusim` device charges kernel time against — plus an
optional completion deadline used by the deadline-aware scheduling policy
(DESIGN.md §4).

A :class:`Response` pairs the request with its result and a three-way
latency decomposition:

``queue_time``
    Simulated seconds the request waited before its micro-batch was formed
    (arrival → dispatch).
``dispatch_time``
    The micro-batch's assembly/staging overhead.  Every request in a batch
    experiences the whole batch's execution, so this is a batch-level time.
``kernel_time``
    The micro-batch's device execution time (tree descent, verification,
    transfers) — batch-level, for the same reason.

``latency = queue_time + dispatch_time + kernel_time`` and equals
``completed_at - arrival_time``.  Separately from the latency decomposition,
``attributed_stats`` carries the request's *cost share* of the batch — the
batch's :class:`~repro.gpusim.ExecutionStats` scaled by ``1 / batch_size``
(see :meth:`ExecutionStats.scale`) — which is what throughput/efficiency
accounting should sum over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "RANGE",
    "KNN",
    "INSERT",
    "DELETE",
    "QUERY_KINDS",
    "UPDATE_KINDS",
    "Request",
    "Response",
]

#: Operation kind tags (shared with :meth:`repro.core.GTS.execute_batch`).
RANGE = "range"
KNN = "knn"
INSERT = "insert"
DELETE = "delete"

QUERY_KINDS = frozenset({RANGE, KNN})
UPDATE_KINDS = frozenset({INSERT, DELETE})


@dataclass
class Request:
    """One client operation awaiting service.

    Parameters
    ----------
    request_id:
        Unique id within one workload/stream (assigned by the generator or
        by :meth:`GTSService.submit`).
    client_id:
        The simulated client that issued the request.
    kind:
        ``"range"``, ``"knn"``, ``"insert"`` or ``"delete"``.
    arrival_time:
        Open-loop arrival timestamp in simulated seconds.
    payload:
        The query object (range/kNN), the new object (insert), or the
        object id (delete).
    radius / k:
        The query parameter for range and kNN requests respectively.
    deadline:
        Optional absolute completion deadline (simulated seconds); consumed
        by the deadline-aware policy and reported as ``deadline_missed``.
    """

    request_id: int
    client_id: int
    kind: str
    arrival_time: float
    payload: object = None
    radius: Optional[float] = None
    k: Optional[int] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS | UPDATE_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind == RANGE and self.radius is None:
            raise ValueError("range requests need a radius")
        if self.kind == KNN and self.k is None:
            raise ValueError("knn requests need k")

    def as_op(self) -> tuple:
        """Convert to the tuple form :meth:`GTS.execute_batch` consumes."""
        if self.kind == RANGE:
            return (RANGE, self.payload, float(self.radius))
        if self.kind == KNN:
            return (KNN, self.payload, int(self.k))
        if self.kind == INSERT:
            return (INSERT, self.payload)
        return (DELETE, int(self.payload))


@dataclass
class Response:
    """The served result of one request plus its latency accounting."""

    request: Request
    result: object
    batch_id: int
    batch_size: int
    dispatched_at: float
    completed_at: float
    dispatch_time: float
    kernel_time: float
    #: per-request cost share of the batch's device activity (stats / size)
    attributed_stats: object = None

    @property
    def queue_time(self) -> float:
        """Simulated seconds spent waiting for the micro-batch to form."""
        return self.dispatched_at - self.request.arrival_time

    @property
    def latency(self) -> float:
        """End-to-end simulated latency (arrival → completion)."""
        return self.completed_at - self.request.arrival_time

    @property
    def deadline_missed(self) -> bool:
        """True when the request had a deadline and completed after it."""
        deadline = self.request.deadline
        return deadline is not None and self.completed_at > deadline
