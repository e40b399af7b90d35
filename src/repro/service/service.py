"""The concurrent query-serving front-end over a :class:`~repro.core.GTS` index.

:class:`GTSService` is what the ROADMAP's "heavy traffic from millions of
users" scenario looks like on the simulated GPU: many clients submit
interleaved range/kNN/insert/delete requests with open-loop arrival times, a
:class:`~repro.service.scheduler.SchedulingPolicy` coalesces them into
micro-batches, and each micro-batch is dispatched through the index's
mixed-batch entry point (:meth:`GTS.execute_batch`).  There, the queries
between two updates ride the paper's batch algorithms (Algorithms 4-5), with
their memory-aware two-stage grouping, as one call per query kind, and a
query repeated within the batch is searched once.

Time model.  The service runs an event-driven loop over *simulated* seconds —
the same clock the :mod:`repro.gpusim` device charges kernel time against.
The loop alternates between two moves:

1. advance the clock to the next interesting instant (a request arrival or
   the policy's wake-up time), admitting newly-arrived requests; and
2. when the policy cuts a batch, execute it on the device and advance the
   clock by the batch's measured dispatch + kernel time.

The device is busy while a batch runs, so requests arriving mid-batch simply
queue until the loop looks again — exactly the head-of-line behaviour a real
single-GPU serving process exhibits.

Maintenance.  With a :class:`MaintenanceHook`, the service also drives the
index's incremental maintenance subsystem (DESIGN.md §9): after each
micro-batch — and whenever the device would otherwise sit idle — it runs one
bounded generation-rebuild slice, so a cache overflow never stalls a query
batch behind a full stop-the-world reconstruction.  The hook is
deadline-aware in the simple, load-shedding sense: while the request queue is
deep, slices are deferred (up to ``max_deferrals`` consecutive times) so
queries keep priority; idle time is always spent on maintenance first — the
serving-layer realisation of the paper's "peak-valley" strategy.

Correctness.  Policies dispatch arrival-ordered prefixes of the queue, and
:meth:`GTS.execute_batch` applies updates in submission order as barriers.
It reorders and deduplicates only queries between two barriers, and queries
do not change index state, so the answers are identical to replaying the same
request stream sequentially against the bare index — the property
``tests/test_service.py`` locks in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..core.gts import GTS
from ..exceptions import QueryError
from ..gpusim.timing import PhaseTimer
from .requests import Request, Response
from .scheduler import GreedyBatchPolicy, SchedulingPolicy

__all__ = [
    "GTSService",
    "MicroBatchRecord",
    "MaintenanceHook",
    "MaintenanceSliceRecord",
]


@dataclass(frozen=True)
class MaintenanceHook:
    """Service-side schedule of incremental-maintenance slices.

    Parameters
    ----------
    defer_queue_threshold:
        Pending-request count at or above which a due slice is deferred in
        favour of serving queries first.
    max_deferrals:
        Consecutive deferrals after which a slice runs regardless of load,
        bounding how long maintenance can be starved.
    config:
        Optional :class:`~repro.core.maintenance.MaintenanceConfig` applied
        when the service auto-enables maintenance on an index that does not
        have it switched on yet.
    """

    defer_queue_threshold: int = 8
    max_deferrals: int = 4
    config: object = None

    def __post_init__(self) -> None:
        if self.defer_queue_threshold < 1:
            raise QueryError(
                f"defer_queue_threshold must be >= 1, got {self.defer_queue_threshold}"
            )
        if self.max_deferrals < 0:
            raise QueryError(f"max_deferrals must be >= 0, got {self.max_deferrals}")


@dataclass
class MaintenanceSliceRecord:
    """Bookkeeping of one maintenance slice the service ran."""

    #: simulated time at which the slice started
    at: float
    #: simulated seconds the slice held the device
    sim_time: float
    #: construction levels the slice advanced
    levels: int
    #: True when this slice completed the rebuild and swapped generations
    swapped: bool
    #: True when the slice ran in an idle gap (no pending requests)
    idle: bool


@dataclass
class MicroBatchRecord:
    """Bookkeeping of one dispatched micro-batch (for reports and tests)."""

    batch_id: int
    size: int
    dispatched_at: float
    completed_at: float
    dispatch_time: float
    kernel_time: float
    #: request-kind histogram, e.g. ``{"range": 3, "knn": 5}``
    kinds: dict = field(default_factory=dict)
    #: full device-activity delta of the batch (dispatch + kernel phases)
    stats: object = None

    @property
    def service_time(self) -> float:
        """Total simulated seconds the device was busy with this batch."""
        return self.dispatch_time + self.kernel_time


class GTSService:
    """Serve interleaved requests from many clients over one GTS index.

    Parameters
    ----------
    index:
        A built :class:`~repro.core.GTS` index.  The service shares the
        index's simulated device; all timing is charged there.
    policy:
        The micro-batching policy; defaults to a
        :class:`~repro.service.scheduler.GreedyBatchPolicy` with its stock
        batch size / max wait.
    maintenance:
        Optional :class:`MaintenanceHook`.  When given, the service enables
        incremental maintenance on the index (unless already enabled) and
        schedules generation-rebuild slices between micro-batches and in
        idle gaps; slices run are recorded in :attr:`maintenance_records`.

    Use :meth:`serve` for a whole pre-generated workload (the benchmark and
    CLI path) or :meth:`submit` + :meth:`flush` for ad-hoc request lists.
    """

    def __init__(
        self,
        index: GTS,
        policy: Optional[SchedulingPolicy] = None,
        maintenance: Optional[MaintenanceHook] = None,
    ):
        index._require_built()
        self.index = index
        self.policy = policy or GreedyBatchPolicy()
        self.maintenance_hook = maintenance
        self.batches: list[MicroBatchRecord] = []
        self.maintenance_records: list[MaintenanceSliceRecord] = []
        self._deferrals = 0
        self._batch_counter = 0
        self._submitted: list[Request] = []
        self._next_request_id = 0
        if maintenance is not None and not getattr(index, "maintenance_enabled", False):
            index.enable_incremental_maintenance(maintenance.config)

    # ------------------------------------------------------------- submission
    def submit(
        self,
        kind: str,
        payload=None,
        radius: Optional[float] = None,
        k: Optional[int] = None,
        client_id: int = 0,
        arrival_time: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Request:
        """Queue one ad-hoc request and return it (served on :meth:`flush`).

        ``arrival_time`` defaults to just after the previously submitted
        request so that a plain submit/submit/flush sequence replays in
        submission order.
        """
        if arrival_time is None:
            arrival_time = self._submitted[-1].arrival_time if self._submitted else 0.0
        request = Request(
            request_id=self._next_request_id,
            client_id=client_id,
            kind=kind,
            arrival_time=float(arrival_time),
            payload=payload,
            radius=radius,
            k=k,
            deadline=deadline,
        )
        self._next_request_id += 1
        self._submitted.append(request)
        return request

    def flush(self) -> list[Response]:
        """Serve every request queued via :meth:`submit` and clear the queue."""
        requests, self._submitted = self._submitted, []
        return self.serve(requests)

    # -------------------------------------------------------------- main loop
    def serve(self, requests: Iterable[Request]) -> list[Response]:
        """Run the event loop over a request stream; returns one response each.

        Responses come back in dispatch order, which for the shipped
        (prefix-dispatching) policies equals arrival order.  An empty stream
        is served trivially (no batches, no device activity).
        """
        stream = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        responses: list[Response] = []
        pending: deque[Request] = deque()
        cursor = 0
        now = 0.0

        while cursor < len(stream) or pending:
            while cursor < len(stream) and stream[cursor].arrival_time <= now:
                pending.append(stream[cursor])
                cursor += 1
            next_arrival = stream[cursor].arrival_time if cursor < len(stream) else None

            decision = self.policy.decide(pending, now, next_arrival)
            if decision.batch:
                batch = decision.batch
                # Sequential equivalence requires arrival-ordered prefixes; a
                # policy returning anything else would silently drop/duplicate
                # requests below, so refuse it loudly instead.
                for request in batch:
                    if not pending or pending[0] is not request:
                        raise QueryError(
                            f"{self.policy.name} returned a non-prefix batch; "
                            "policies must dispatch requests in arrival order"
                        )
                    pending.popleft()
                record, batch_responses = self._dispatch(batch, now)
                responses.extend(batch_responses)
                self.policy.observe(record.size, record.service_time)
                now = record.completed_at
                # maintenance rides between micro-batches: at most one
                # bounded slice before the next batch can form
                now = self._run_maintenance_slice(now, len(pending))
                continue

            # No batch cut: the device is idle until the policy's wake-up or
            # the next arrival — idle time is maintenance time first (the
            # "valley" of the paper's peak-valley strategy).
            advanced = self._run_maintenance_slice(now, len(pending))
            if advanced != now:
                now = advanced
                continue

            # Sleep until the policy's wake-up or the next arrival.  A policy
            # that neither dispatches nor names a finite wake-up while the
            # stream is drained would hang the loop, so force-flush in that
            # case.
            candidates = [t for t in (decision.wake_at, next_arrival) if t is not None]
            wake = min(candidates) if candidates else float("inf")
            if wake == float("inf"):
                if pending:
                    record, batch_responses = self._dispatch(list(pending), now)
                    pending.clear()
                    responses.extend(batch_responses)
                    self.policy.observe(record.size, record.service_time)
                    now = record.completed_at
                continue
            now = max(now, wake)

        # the stream is fully served; drain any rebuild still in flight so
        # the index is fresh before the next serve() call
        while True:
            advanced = self._run_maintenance_slice(now, 0)
            if advanced == now:
                break
            now = advanced

        return responses

    # ------------------------------------------------------------ maintenance
    def _run_maintenance_slice(self, now: float, pending_count: int) -> float:
        """Run at most one due maintenance slice at ``now``; returns the clock.

        Deadline-aware deferral: under load (``pending_count`` at or above
        the hook's threshold) a due slice is skipped up to ``max_deferrals``
        consecutive times so queries keep priority; idle slices always run.
        """
        hook = self.maintenance_hook
        if hook is None or not getattr(self.index, "maintenance_due", False):
            self._deferrals = 0
            return now
        idle = pending_count == 0
        if (
            not idle
            and pending_count >= hook.defer_queue_threshold
            and self._deferrals < hook.max_deferrals
        ):
            self._deferrals += 1
            return now
        self._deferrals = 0
        before = self.index.device.stats.sim_time
        report = self.index.run_maintenance_slice()
        elapsed = self.index.device.stats.sim_time - before
        if report is None:
            return now
        self.maintenance_records.append(
            MaintenanceSliceRecord(
                at=now,
                sim_time=elapsed,
                levels=report.levels,
                swapped=report.swapped,
                idle=idle,
            )
        )
        return now + elapsed

    # --------------------------------------------------------------- dispatch
    def _dispatch(self, batch: Sequence[Request], now: float):
        """Execute one micro-batch at simulated time ``now``."""
        if not batch:
            raise QueryError("cannot dispatch an empty micro-batch")
        self._batch_counter += 1
        device = self.index.device
        timer = PhaseTimer(device)

        with timer.phase("dispatch"):
            # Batch assembly: stage the request descriptors onto the device in
            # one coalesced copy (Section 5.1 copies queries host→device
            # before processing) plus one scatter kernel.
            device.transfer_to_device(len(batch) * 32)
            device.launch_kernel(
                work_items=len(batch), op_cost=1.0, label="service-batch-assemble"
            )
        with timer.phase("kernel"):
            results = self.index.execute_batch([r.as_op() for r in batch])

        dispatch_time = timer.sim_time("dispatch")
        kernel_time = timer.sim_time("kernel")
        completed_at = now + dispatch_time + kernel_time
        batch_stats = timer.stats["dispatch"].merge(timer.stats["kernel"])
        per_request_stats = batch_stats.scale(1.0 / len(batch))

        kinds: dict = {}
        for request in batch:
            kinds[request.kind] = kinds.get(request.kind, 0) + 1
        record = MicroBatchRecord(
            batch_id=self._batch_counter,
            size=len(batch),
            dispatched_at=now,
            completed_at=completed_at,
            dispatch_time=dispatch_time,
            kernel_time=kernel_time,
            kinds=kinds,
            stats=batch_stats,
        )
        self.batches.append(record)

        responses = [
            Response(
                request=request,
                result=result,
                batch_id=record.batch_id,
                batch_size=record.size,
                dispatched_at=now,
                completed_at=completed_at,
                dispatch_time=dispatch_time,
                kernel_time=kernel_time,
                attributed_stats=per_request_stats,
            )
            for request, result in zip(batch, results)
        ]
        return record, responses
