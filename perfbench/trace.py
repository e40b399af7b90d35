"""Span tracing for the traced run, recorded from the benchmark's own files.

While a :class:`Tracer` is installed it replaces a fixed set of methods on
the program's classes with timing wrappers and restores the originals on
exit; it never rebinds a name some module imported, so the program runs the
same code either way.  Each call to a traced method becomes a span
``(name, start, end, parent, batch)``; ``batch`` is the micro-batch the span
ran in (the count of ``execute_batch`` calls so far, 0 before the first).
Calls made far too often for a span each (device calls, pager accesses:
over 10^5 per run) only add to a per-name call count and total time.

Index builds run under the tracer too (``construction`` spans), but only
what runs inside a ``service`` span counts as serving: the queries default
to serving spans, and aggregated calls and kernel pair counts are recorded
only while serving, so set-up work never inflates a serving layer.

A span's self time is its duration minus the time its child spans and
aggregated calls cover.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro import GTS, BlockPager, Device, GTSService, Metric, ShardedGTS
from repro.core import CacheTable, ColumnarStore
from repro.tier import PagedObjects

__all__ = ["Tracer"]

_SERVE, _SPAN, _BATCH, _PAIRS, _AGGREGATE = "serve", "span", "batch", "pairs", "aggregate"

#: (class, method, span name, kind) of every traced layer boundary.
TARGETS = (
    (GTSService, "serve", "service", _SERVE),
    (GTS, "execute_batch", "gts.execute_batch", _BATCH),
    (ShardedGTS, "execute_batch", "gts.execute_batch", _BATCH),
    (GTS, "range_query_batch", "range_query", _SPAN),
    (GTS, "knn_query_batch", "knn_query", _SPAN),
    (ShardedGTS, "range_query_batch", "shard", _SPAN),
    (ShardedGTS, "knn_query_batch", "shard", _SPAN),
    (GTS, "run_maintenance_slice", "maintenance", _SPAN),
    (ShardedGTS, "run_maintenance_slice", "maintenance", _SPAN),
    (GTS, "bulk_load", "construction", _SPAN),
    (GTS, "rebuild", "construction", _SPAN),
    (CacheTable, "range_scan_batch", "cache_table.scan", _SPAN),
    (CacheTable, "knn_scan_batch", "cache_table.scan", _SPAN),
    (ColumnarStore, "gather", "objectstore.gather", _SPAN),
    (PagedObjects, "gather", "tier.gather", _SPAN),
    (Metric, "pairwise_segmented", "metrics.pairwise_segmented", _PAIRS),
    (Device, "launch_kernel", "gpusim.device_call", _AGGREGATE),
    (Device, "allocate", "gpusim.device_call", _AGGREGATE),
    (Device, "free", "gpusim.device_call", _AGGREGATE),
    (Device, "transfer_to_device", "gpusim.device_call", _AGGREGATE),
    (Device, "transfer_to_host", "gpusim.device_call", _AGGREGATE),
    (BlockPager, "access", "tier.pager_access", _AGGREGATE),
)

# span record fields
_NAME, _START, _END, _PARENT, _BATCH_ID, _COVERED, _SERVING = range(7)


class Tracer:
    """Records spans and aggregated call totals while installed."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, batch, covered seconds, serving]``
        self.spans: list = []
        #: aggregated calls made while serving: name -> ``[calls, seconds]``
        self.totals: dict = {}
        #: distance pairs evaluated inside ``Metric.pairwise_segmented`` while serving
        self.kernel_pairs = 0
        self.batch = 0
        self._stack: list = []
        self._aggregate_depth = 0
        self._serving = 0

    # ------------------------------------------------------------ wrappers
    def _wrap(self, name: str, kind: str, fn):
        if kind == _AGGREGATE:
            return self._aggregate(name, fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if kind == _BATCH:
                self.batch += 1
            elif kind == _SERVE:
                self._serving += 1
            elif kind == _PAIRS:
                pairs_before = args[0].pair_count
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.batch, 0.0, self._serving > 0]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                record[_END] = end
                stack.pop()
                if stack:
                    spans[stack[-1]][_COVERED] += end - record[_START]
                if kind == _SERVE:
                    self._serving -= 1
                elif kind == _PAIRS and record[_SERVING]:
                    self.kernel_pairs += args[0].pair_count - pairs_before

        return traced

    def _aggregate(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if not self._serving:
                return fn(*args, **kwargs)
            self._aggregate_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._aggregate_depth -= 1
                totals[0] += 1
                totals[1] += elapsed
                # nested aggregated calls are already inside the outer one
                if stack and not self._aggregate_depth:
                    spans[stack[-1]][_COVERED] += elapsed

        return counted

    @contextmanager
    def installed(self):
        """Trace every target method for the duration of the block."""
        patched = []
        try:
            for cls, attr, name, kind in TARGETS:
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, kind, original))
                patched.append((cls, attr, original))
            yield self
        finally:
            for cls, attr, original in reversed(patched):
                setattr(cls, attr, original)

    # ------------------------------------------------------------- queries
    def _named(self, name: str, serving: bool) -> list:
        """The ``name`` spans that ran while serving (or, if not ``serving``, outside it)."""
        return [s for s in self.spans if s[_NAME] == name and s[_SERVING] == serving]

    def self_seconds(self, name: str, serving: bool = True) -> float:
        """Total self time of the spans called ``name``."""
        return sum(s[_END] - s[_START] - s[_COVERED] for s in self._named(name, serving))

    def inclusive_seconds(self, name: str, serving: bool = True) -> float:
        """Total duration of the ``name`` spans not nested in another ``name`` span."""
        return sum(
            s[_END] - s[_START] for s in self._named(name, serving) if not self._inside(s, name)
        )

    def count(self, name: str, parent: str | None = None, serving: bool = True) -> int:
        """Number of ``name`` spans (whose direct parent is a ``parent`` span)."""
        return sum(
            1
            for s in self._named(name, serving)
            if parent is None or (s[_PARENT] >= 0 and self.spans[s[_PARENT]][_NAME] == parent)
        )

    def aggregate(self, name: str) -> tuple:
        """``(calls, seconds)`` of an aggregated call name."""
        calls, seconds = self.totals.get(name, (0, 0.0))
        return calls, seconds

    def _inside(self, span, name: str) -> bool:
        parent = span[_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == name:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def write(self, path) -> None:
        """Write the spans (one JSON object a line) and the aggregates."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, s in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": s[_NAME],
                            "start_s": s[_START] - origin,
                            "end_s": s[_END] - origin,
                            "self_s": s[_END] - s[_START] - s[_COVERED],
                            "parent": s[_PARENT],
                            "batch": s[_BATCH_ID],
                            "phase": "serve" if s[_SERVING] else "setup",
                        }
                    )
                    + "\n"
                )
            for name, (calls, seconds) in sorted(self.totals.items()):
                out.write(json.dumps({"aggregate": name, "calls": calls, "seconds": seconds}) + "\n")
